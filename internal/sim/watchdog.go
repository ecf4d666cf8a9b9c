package sim

import "fmt"

// StallError is the structured report a progress watchdog produces when
// virtual time keeps advancing but the watched subsystem makes no progress
// for longer than its window — simulated livelock, which the engine's
// deadlock detector (all processors blocked, no events) cannot see because
// spinning processors are never blocked. Report carries the subsystem's
// forensics: for the coherence watchdog, the hot blocks, their pending
// requests, and each node's last protocol action.
type StallError struct {
	Source       string // the watched subsystem ("coherence")
	Window       Time   // the configured no-progress window
	LastProgress Time   // virtual time of the last progress mark
	Now          Time   // virtual time at detection
	Report       string // subsystem-rendered diagnostics
}

func (e *StallError) Error() string {
	msg := fmt.Sprintf("sim: %s stalled: no progress for %d cycles (last @%d, now @%d, window %d)",
		e.Source, e.Now-e.LastProgress, e.LastProgress, e.Now, e.Window)
	if e.Report != "" {
		msg += "\n" + e.Report
	}
	return msg
}

// Watchdog watches one subsystem for livelock. The subsystem calls Progress
// whenever it completes a unit of work (the coherence layer: a directory
// transaction granting a reply); the engine checks every quantum whether the
// last progress mark has fallen more than Window behind virtual time, and if
// so aborts the run with a StallError carrying the report callback's
// diagnostics.
type Watchdog struct {
	Source string
	Window Time

	last      Time
	wasActive bool // active() at the previous check; restarts the window on quiet→active
	active    func() bool
	report    func() string
}

// AddWatchdog arms a progress watchdog on the engine. active, which may be
// nil (always active), reports whether the subsystem currently has work
// outstanding — a watchdog never fires while its subsystem is legitimately
// quiet (e.g. a pure-compute phase with no coherence traffic). The engine
// restarts the window itself when it observes a quiet→active transition at
// a quantum boundary, so a stale last-progress mark from before the quiet
// period cannot fire the watchdog immediately. report, which may be nil,
// renders subsystem forensics for the stall report; it is called only on
// detection. Engines with no watchdogs pay a single empty-slice check per
// quantum.
func (e *Engine) AddWatchdog(source string, window Time, active func() bool, report func() string) *Watchdog {
	if window <= 0 {
		panic("sim: watchdog window must be positive")
	}
	w := &Watchdog{Source: source, Window: window, active: active, report: report}
	e.watchdogs = append(e.watchdogs, w)
	return w
}

// Progress records that the watched subsystem completed work at time at.
// Must be called from engine context (an event handler): a processor's
// clock may run ahead of the quantum, so a mark from processor context
// would record that run-ahead clock — completion events are where protocol
// work actually finishes anyway.
func (w *Watchdog) Progress(at Time) {
	if at > w.last {
		w.last = at
	}
}

// checkWatchdogs aborts the run if any watchdog's window has expired. Called
// once per scheduling iteration, before the event phase. A quiet→active
// transition restarts the window at the current boundary: the subsystem was
// idle, so its last progress mark says nothing about the new work.
func (e *Engine) checkWatchdogs() {
	for _, w := range e.watchdogs {
		if w.active != nil && !w.active() {
			w.wasActive = false
			continue
		}
		if !w.wasActive {
			w.wasActive = true
			if e.now > w.last {
				w.last = e.now
			}
		}
		if e.now-w.last > w.Window {
			rep := ""
			if w.report != nil {
				rep = w.report()
			}
			e.Abort(&StallError{
				Source: w.Source, Window: w.Window,
				LastProgress: w.last, Now: e.now, Report: rep,
			})
		}
	}
}
