package mse

import (
	"sort"

	"repro/internal/cmmd"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/ni"
	"repro/internal/snapshot"
)

// RunMP runs MSE-MP. Each processor keeps a local copy of the solution
// vector; when its schedule calls for updates it sends asynchronous
// requests for current values and awaits the replies, servicing other
// processors' requests in the meantime (paper §5.1). Replies are versioned
// by iteration, so the computation reproduces the scheduled-Jacobi
// reference exactly.
func RunMP(cfg cost.Config, shape cmmd.Shape, par Params) *Output {
	out := &Output{}
	procs := cfg.Procs
	pr := genProblem(par, procs)
	nm := pr.nm
	epp := nm / procs
	bpp := par.Bodies / procs
	m := par.Elems

	out.Res = machine.RunMP(cfg, shape, func(nd *machine.MPNode) {
		me := nd.ID
		mem := nd.Mem

		// Replicated initialization: every processor computes the geometry
		// and self terms (MSE-MP's computation exceeds MSE-SM's by exactly
		// this, per the paper).
		nd.Compute(serialInitCycles(nm))

		// Local copy of the solution vector; panels for the recomputed
		// matrix blocks (never stored whole).
		xsnap := nd.AllocF(nm)
		panel := nd.AllocF(nm * m / 2)
		nd.Compute(int64(epp) * cInit)

		// Published segment history for versioned replies.
		pub := map[int][]float64{0: make([]float64, epp)}
		pubIter := 0
		scratch := nd.AllocF(epp)
		nd.OnState(func(enc *snapshot.Enc) {
			enc.F64s(xsnap.V)
			enc.F64s(scratch.V)
			enc.I64(int64(pubIter))
			iters := make([]int, 0, len(pub))
			for it := range pub {
				iters = append(iters, it)
			}
			sort.Ints(iters)
			for _, it := range iters {
				enc.I64(int64(it))
				enc.F64s(pub[it])
			}
		})

		// Receive channels: one per peer, over that peer's segment of my
		// local copy; opened in ascending peer order so ids are symmetric.
		recvQ := make([]*cmmd.RecvChannel, procs)
		for q := 0; q < procs; q++ {
			if q != me {
				recvQ[q] = nd.EP.OpenRecvChannelF(&xsnap, q*epp, (q+1)*epp)
			}
		}
		chanOn := func(r, q int) int { // id of q's segment channel on node r
			if q < r {
				return q
			}
			return q - 1
		}

		// Request servicing: replies stream the published values for the
		// requested iteration; early requests defer until published.
		type reqT struct{ from, iter int }
		var deferred []reqT
		served := 0
		reply := func(r reqT) {
			vals := pub[r.iter-1]
			copy(scratch.V, vals)
			scratch.WriteRange(mem, 0, epp)
			nd.EP.ChannelWriteF(r.from, chanOn(r.from, me), &scratch, 0, epp)
			served++
		}
		hReq := nd.AM.Register(func(pkt *ni.Packet) {
			r := reqT{from: int(pkt.Args[0]), iter: int(pkt.Args[1])}
			if pubIter >= r.iter-1 {
				reply(r)
			} else {
				deferred = append(deferred, r)
			}
		})

		// Expected request total, for quiescing before the final barrier.
		expectedReqs := 0
		for q := 0; q < procs; q++ {
			for t := 1; t <= par.Iters; t++ {
				if q != me && pr.due(q, me, t) {
					expectedReqs++
				}
			}
		}

		nd.Barrier()
		expect := make([]int64, procs)
		next := make([]float64, epp)
		for t := 1; t <= par.Iters; t++ {
			// Scheduled snapshot refresh: ask every due peer for its
			// previous iteration's published values.
			for q := 0; q < procs; q++ {
				if q == me || !pr.due(me, q, t) {
					continue
				}
				nd.AM.Request(q, hReq, [4]uint64{uint64(me), uint64(t)}, 0, nil)
				expect[q]++
				nd.Compute(cSchedule)
			}
			for q := 0; q < procs; q++ {
				if q != me && pr.due(me, q, t) {
					nd.EP.WaitChannel(recvQ[q], expect[q])
				}
			}

			// Jacobi update of my elements, recomputing matrix panels
			// body-block by body-block (the system matrix is never stored).
			for lb := 0; lb < bpp; lb++ {
				gb := (me*bpp + lb) // global body
				for ob := 0; ob < par.Bodies; ob++ {
					seg := (lb*par.Bodies + ob) * m * m / 2 % panel.Len()
					end := seg + m*m/2
					if end > panel.Len() {
						end = panel.Len()
					}
					panel.WriteRange(mem, seg, end)
					xsnap.ReadRange(mem, ob*m, (ob+1)*m)
					work := int64(m*m) * cKernel
					if pr.near(gb, ob) {
						work *= 4 // refined quadrature for close bodies
					}
					nd.Compute(work)
				}
			}
			for li := 0; li < epp; li++ {
				i := me*epp + li
				s := pr.b[i]
				for j := 0; j < nm; j++ {
					if j != i {
						s -= float64(pr.kernel(i, j) * xsnap.V[j])
					}
				}
				next[li] = s / pr.diag[i]
				nd.Compute(cElem)
			}
			for li := 0; li < epp; li++ {
				xsnap.V[me*epp+li] = next[li]
			}
			xsnap.WriteRange(mem, me*epp, (me+1)*epp)

			// Publish this iteration's values and service waiting peers.
			pub[t] = append([]float64(nil), next...)
			pubIter = t
			var still []reqT
			for _, r := range deferred {
				if pubIter >= r.iter-1 {
					reply(r)
				} else {
					still = append(still, r)
				}
			}
			deferred = still
		}

		// Quiesce: answer every remaining request, then synchronize.
		nd.AM.PollUntil(func() bool { return served == expectedReqs })
		nd.Barrier()
		if me == 0 {
			out.X = make([]float64, nm)
		}
		nd.Barrier()
		copy(out.X[me*epp:(me+1)*epp], pub[par.Iters])
	})

	if out.Res.Err == nil {
		ref := pr.reference(procs, par.Iters)
		out.validate(pr, ref)
	}
	return out
}
