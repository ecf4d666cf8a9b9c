package mse

import (
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/parmacs"
	"repro/internal/snapshot"
)

// RunSM runs MSE-SM. The solution vector lives in the shared address space;
// processors update it according to their schedules and read remote
// portions directly. Initialization runs serially on processor 0 while the
// others idle (the paper's 80M-cycle start-up wait), and a barrier
// separates initialization from the main loop.
func RunSM(cfg cost.Config, par Params) *Output {
	out := &Output{}
	procs := cfg.Procs
	pr := genProblem(par, procs)
	nm := pr.nm
	epp := nm / procs
	bpp := par.Bodies / procs
	m := par.Elems

	var (
		xg memsim.FVec // the global solution vector
		xb *memsim.BoundaryVec
	)

	out.Res = machine.RunSM(cfg, parmacs.RoundRobin, func(nd *machine.SMNode) {
		me := nd.ID
		mem := nd.Mem

		if me == 0 {
			// Serial initialization on processor 0 (geometry, self terms,
			// schedules) while the other processors sit idle.
			xg = nd.RT.GMallocF(0, nm)
			xb = memsim.NewBoundaryVec(nd.P.Engine(), &xg)
			nd.Compute(serialInitCycles(nm))
			nd.RT.Create(nd.P)
		} else {
			nd.RT.WaitCreate(nd.P)
		}

		// Per-processor setup: local snapshot of the solution vector and
		// panel workspace for the recomputed matrix blocks.
		xsnap := nd.AllocF(nm)
		panel := nd.AllocF(nm * m / 2)
		nd.OnState(func(enc *snapshot.Enc) {
			if me == 0 { // shared vector, encoded once
				enc.F64s(xg.V)
			}
			enc.F64s(xsnap.V)
		})
		nd.Compute(int64(epp) * cInit)
		xg.WriteRange(mem, me*epp, (me+1)*epp)
		nd.Barrier() // the single barrier between init and main loop

		next := make([]float64, epp)
		for t := 1; t <= par.Iters; t++ {
			// Scheduled snapshot refresh: read due processors' portions of
			// the global vector directly from shared memory.
			for q := 0; q < procs; q++ {
				if q == me || !pr.due(me, q, t) {
					continue
				}
				xg.ReadRange(mem, q*epp, (q+1)*epp)
				xsnap.WriteRange(mem, q*epp, (q+1)*epp)
				// Copy the quantum-boundary image, not the live backing:
				// q may be mid-publish this quantum, and which of its
				// writes have landed must not depend on dispatch order.
				copy(xsnap.V[q*epp:(q+1)*epp], xb.Image[q*epp:(q+1)*epp])
				nd.Compute(cSchedule)
			}

			// Jacobi update, recomputing matrix panels (identical work to
			// the message-passing version).
			for lb := 0; lb < bpp; lb++ {
				gb := me*bpp + lb
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
						work *= 4
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
			// Publish into the global vector (write faults where readers
			// hold copies) and into the local snapshot.
			xb.SetRange(me, me*epp, next)
			copy(xsnap.V[me*epp:(me+1)*epp], next)
			xg.WriteRange(mem, me*epp, (me+1)*epp)
			xsnap.WriteRange(mem, me*epp, (me+1)*epp)
		}
		nd.Barrier()
		if me == 0 {
			out.X = append([]float64(nil), xg.V...)
		}
	})

	if out.Res.Err == nil {
		ref := pr.reference(procs, par.Iters)
		out.validate(pr, ref)
	}
	return out
}
