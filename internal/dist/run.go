package dist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// This file is the fault-tolerant coordinator. The design separates three
// concerns so that recovery cannot disturb determinism:
//
//   - What to fold: the in-order fold over global trial indices, the stop
//     checks, and the checkpoint cadence are exactly the pre-fault-tolerance
//     ones — a wave folds when every index in it has a result, no matter
//     which worker (or incarnation) computed it.
//   - Who computes what: a single-threaded event loop tracks, per
//     dispatched index, the shard currently responsible for it. When a
//     worker dies the outstanding indices are requeued — to the relaunched
//     worker, or across the survivors once the relaunch budget is spent.
//   - Failure detection: per-connection reader and sender goroutines turn
//     EOFs, decode errors, and write failures into events; a liveness
//     deadline (Options.WorkerTimeout) catches workers that hang without
//     closing anything.
//
// Trial payloads are pure functions of (spec, seed, index), so recomputing
// an index on a different worker — even folding a duplicate delivery —
// yields identical bytes; scheduling is the only thing failures can change.

// pipelineDepth is how many waves may be dispatched beyond the fold point:
// workers begin wave w+1 the moment they finish wave w while the
// coordinator is still folding, checkpointing, and stop-checking wave w.
// Folding order, the stop point, and checkpoint granularity are untouched —
// pipelining only removes the worker idle time at each fold. Depth 2 is
// exactly "one wave ahead of the fold": more would only grow the discard
// pile when a stopping predicate fires. Cheap trials are served by sizing
// the waves instead (waveSize): on 1-interaction trials over two worker
// processes a deeper pipeline gained about 1.1× in throughput, cost-sized
// waves about 1.55×.
const pipelineDepth = 2

// sendQueueCap bounds a shard's command queue. The event loop never blocks
// on a worker: commands are enqueued and a per-connection sender goroutine
// performs the (possibly blocking) writes. Dispatch-ahead is bounded by
// pipelineDepth and requeues by the outstanding-wave count, so the queue
// can only overflow if the coordinator itself is broken.
const sendQueueCap = 64

// waveRange is one dispatch wave's global trial-index range.
type waveRange struct{ lo, hi int }

// shardMsg is one worker event tagged with its shard and connection
// generation, as pumped to the event loop. The generation guards against a
// dead incarnation's trailing messages being attributed to its replacement.
type shardMsg struct {
	shard int
	gen   int
	// ms is a batch of messages in stream order: every frame the reader
	// found already buffered, or one undelivered command.
	ms  []Msg
	err error
	// sendErr marks err as a command-side failure: the worker can no longer
	// be told anything, but results it already received commands for may
	// still flow back.
	sendErr bool
	// undelivered marks ms as a command that never reached the worker (the
	// failed write, or one drained from the queue behind it). The fold loop
	// uses it to know which indices can never arrive when recovery is
	// disabled.
	undelivered bool
}

// shardHealth is the lifecycle state of one shard slot.
type shardHealth int

const (
	// healthLaunching: job sent, hello not yet verified.
	healthLaunching shardHealth = iota
	// healthReady: handshake complete, accepting waves.
	healthReady
	// healthBackoff: worker dead, relaunch scheduled.
	healthBackoff
	// healthLost: relaunch budget exhausted (or recovery disabled); the
	// shard's work is redistributed and it is never contacted again.
	healthLost
)

// shardSlot is the coordinator's view of one shard: its current connection
// (generation-tagged, since workers are relaunched), its health, and its
// relaunch bookkeeping. The indices a slot is responsible for are those
// whose trialRec names it as owner.
type shardSlot struct {
	id         int
	gen        int
	health     shardHealth
	conn       *Conn
	sendq      chan Msg
	launcher   Launcher  // starts (and restarts) this member's worker
	owed       int       // dispatched, not-yet-received indices owned
	relaunches int       // relaunch budget consumed
	relaunchAt time.Time // healthBackoff: earliest relaunch time
	lastHeard  time.Time // last protocol frame; the liveness clock
	lastErr    error     // most recent failure cause
}

// coordinator is the single-threaded event loop state of one Run.
type coordinator struct {
	opts          Options
	size          int // the next wave's size: fixed, or cost-sized when Options.Wave is 0
	hash          string
	maxRelaunches int
	backoff       time.Duration
	intr          <-chan struct{}
	join          <-chan Launcher

	slots []*shardSlot
	msgs  chan shardMsg

	pumps   sync.WaitGroup // reader + sender goroutines, all generations
	reapers sync.WaitGroup // kill-and-reap goroutines for dead connections

	// ring holds a trialRec for every index of the in-flight span
	// [done, next): index i lives at ring[i&(len(ring)-1)]. Its length is a
	// power of two at least next-done, grown as waves are dispatched
	// (growRing), so no two indices of the span share a record, and a
	// record is cleared when its index folds.
	ring []trialRec
	done int // fold position

	// The wave schedule, built as the run goes: the dispatched, unfolded
	// waves in index order (at most pipelineDepth), where the next one
	// starts, and how many this invocation dispatched (for MaxWaves).
	inflight   []waveRange
	next       int
	dispatched int
	// cover is the coverage cursor: every index in [done, cover) has a
	// result received. Results leave only by folding, so it never moves
	// back.
	cover int

	interrupted bool
	fatal       error       // unrecoverable failure; fold completable waves first
	timer       *time.Timer // the event loop's deadline timer, reset per event

	log   io.Writer
	logMu sync.Mutex

	res *Result
}

// trialRec is the coordinator's bookkeeping for one dispatched, unfolded
// trial index.
type trialRec struct {
	// data is the received result payload, valid when have is set.
	data []byte
	// owner is the shard owing the result: set when the index is dealt,
	// cleared when any shard's result for it arrives.
	owner *shardSlot
	// have marks a received result.
	have bool
	// dead marks an unreceived index whose command never reached its
	// owner's connection, so that it can never arrive there (NoRelaunch).
	dead bool
}

// minRing is the ring's length when the first wave is dispatched: the
// pipeline's span at DefaultWave.
const minRing = pipelineDepth * DefaultWave

// Run executes a distributed trial run: it launches Options.Shards workers,
// deals each wave's global trial indices across the current member set as
// explicit index lists, folds the returned payloads into sink strictly in
// global trial-index order, and evaluates stop after every fold, exactly as
// experiment.StreamAdaptive does in process — so the folded prefix, and
// every order-sensitive aggregate built from it, is byte-identical to the
// single-process run of the same spec and seed at every shard count and
// under any membership history (see Options.Join).
//
// Run survives worker failure: crashed, hung (see Options.WorkerTimeout),
// and garbage-emitting workers are detected, their outstanding trial
// indices requeued, and the worker relaunched with capped exponential
// backoff (Options.MaxRelaunches); a shard whose relaunch budget is spent
// has its index stream redistributed across the surviving shards. Because
// trial payloads depend only on (spec, seed, index), recovery changes
// scheduling but never results: the folded stream stays byte-identical to
// a fault-free run. Worker-side errors (spec rejection, trial errors) are
// deterministic and abort the run instead of being retried.
//
// stop may be nil for a fixed MaxTrials run. A non-nil sink error aborts
// the run. state carries the caller's aggregates for checkpointing; it is
// required when Options.CheckpointPath is set and may be nil otherwise.
func Run(opts Options, sink func(trial int, data []byte) error, stop func() bool, state State) (Result, error) {
	if opts.Shards < 1 {
		return Result{}, fmt.Errorf("dist: Shards = %d, want >= 1", opts.Shards)
	}
	if opts.MaxTrials < 1 {
		return Result{}, fmt.Errorf("dist: MaxTrials = %d, want >= 1", opts.MaxTrials)
	}
	if opts.Launcher == nil {
		return Result{}, fmt.Errorf("dist: Options.Launcher is required")
	}
	if sink == nil {
		return Result{}, fmt.Errorf("dist: sink is required")
	}
	if opts.CheckpointPath != "" && state == nil {
		return Result{}, fmt.Errorf("dist: CheckpointPath is set but no State was provided")
	}
	if opts.Wave < 0 {
		return Result{}, fmt.Errorf("dist: Wave = %d, want >= 0 (zero sizes the waves by cost)", opts.Wave)
	}
	if opts.MaxWaves < 0 {
		return Result{}, fmt.Errorf("dist: MaxWaves = %d, want >= 0 (zero folds every wave)", opts.MaxWaves)
	}
	if opts.MaxWaves > 0 && opts.CheckpointPath == "" {
		return Result{}, fmt.Errorf("dist: MaxWaves without CheckpointPath would interrupt unresumably")
	}
	if opts.WorkerTimeout < 0 {
		return Result{}, fmt.Errorf("dist: WorkerTimeout = %v, want >= 0 (zero disables the liveness deadline)", opts.WorkerTimeout)
	}
	if opts.RelaunchBackoff < 0 {
		return Result{}, fmt.Errorf("dist: RelaunchBackoff = %v, want >= 0 (zero means the default %v)", opts.RelaunchBackoff, DefaultRelaunchBackoff)
	}
	if opts.MaxRelaunches < NoRelaunch {
		return Result{}, fmt.Errorf("dist: MaxRelaunches = %d, want >= %d (NoRelaunch %d fails fast, zero means the default %d)",
			opts.MaxRelaunches, NoRelaunch, NoRelaunch, DefaultMaxRelaunches)
	}
	hash := HashSpec(opts.Spec)

	res := Result{}
	start := 0
	var ckpt *checkpointFile
	if opts.CheckpointPath != "" {
		f, ok, err := loadCheckpoint(opts.CheckpointPath, hash, opts.Seed, opts.MaxTrials, opts.Policy)
		if err != nil {
			return Result{}, err
		}
		ckpt = f
		if ok {
			if err := f.restore(state); err != nil {
				return Result{}, err
			}
			start = f.NextTrial
			res.ResumedFrom = f.NextTrial
			res.Waves = f.Waves
			if f.Done {
				// The run already finished; the restored state is the final
				// aggregate, so report its recorded outcome without
				// launching anything.
				res.Trials = f.NextTrial
				res.Stopped = f.Stopped
				return res, nil
			}
		}
	}

	co := &coordinator{
		opts:          opts,
		size:          opts.Wave,
		hash:          hash,
		maxRelaunches: opts.MaxRelaunches,
		backoff:       opts.RelaunchBackoff,
		intr:          opts.Interrupt,
		msgs:          make(chan shardMsg, opts.Shards),
		done:          start,
		next:          start,
		cover:         start,
		log:           opts.Log,
		res:           &res,
		join:          opts.Join,
	}
	if co.size <= 0 {
		co.size = DefaultWave
	}
	if co.maxRelaunches == 0 {
		co.maxRelaunches = DefaultMaxRelaunches
	}
	if co.backoff <= 0 {
		co.backoff = DefaultRelaunchBackoff
	}
	if co.log == nil {
		co.log = os.Stderr
	}
	for i := 0; i < opts.Shards; i++ {
		co.slots = append(co.slots, &shardSlot{id: i, launcher: opts.Launcher})
	}
	defer co.cleanup()
	for _, s := range co.slots {
		if err := co.launchSlot(s); err != nil {
			co.slotDown(s, err, false)
		}
	}

	for len(co.inflight) < pipelineDepth && co.dispatchNext() {
	}
	last := waveClock()
	for len(co.inflight) > 0 {
		wv := co.inflight[0]
		// The wave barrier: every index of [lo, hi) has a result. Coverage
		// (not per-shard wavedone counting) is the barrier, so it holds
		// regardless of which incarnation or survivor computed an index.
		for !co.covered(wv) {
			if co.fatal != nil && !co.completable(wv) {
				res.Trials = co.done
				return res, co.fatal
			}
			co.awaitEvent()
		}
		// Fold the wave strictly in global index order, consulting the
		// stopping predicate after every fold — the same contract as the
		// in-process engines, so the stop point cannot depend on shard
		// count, scheduling, wave sizes or recovery. Results past a
		// mid-wave stop are discarded, bounding the waste at the pipeline
		// depth.
		stopped := false
		for i := wv.lo; i < wv.hi && !stopped; i++ {
			r := co.rec(i)
			data := r.data
			*r = trialRec{}
			if err := sink(i, data); err != nil {
				res.Trials = co.done
				return res, fmt.Errorf("dist: fold trial %d: %w", i, err)
			}
			co.done++
			if stop != nil && stop() {
				stopped = true
			}
		}
		co.inflight = co.inflight[1:]
		res.Waves++
		res.Trials = co.done
		res.Stopped = stopped
		if ckpt != nil {
			cp := Checkpoint{
				Hash:      hash,
				Seed:      opts.Seed,
				Policy:    opts.Policy,
				NextTrial: co.done,
				MaxTrials: opts.MaxTrials,
				Waves:     res.Waves,
				Done:      stopped || co.done >= opts.MaxTrials,
				Stopped:   stopped,
			}
			if err := ckpt.append(cp, state); err != nil {
				return res, err
			}
		}
		if stopped {
			return res, nil
		}
		if co.interrupted {
			res.Interrupted = true
			return res, nil
		}
		if opts.Wave <= 0 {
			now := waveClock()
			co.size = waveSize(wv.hi-wv.lo, now.Sub(last), co.size)
			last = now
		}
		co.dispatchNext()
	}
	// Every dispatched wave folded without a stop, so trials remain only
	// when MaxWaves cut the schedule short.
	res.Interrupted = co.done < opts.MaxTrials
	return res, nil
}

// waveClock reads the time that cost-sized waves are measured by. It is
// time.Now; tests step it to grow waves whatever the machine's load.
var waveClock = time.Now

// waveTarget is the fold-to-fold time a cost-sized wave aims at. It equals
// the worker's flushAfter, so a wave share of cheap trials still goes out
// in one write.
const waveTarget = time.Millisecond

// maxWave caps a cost-sized wave, bounding the reorder buffer (pending)
// and the coordinator's peak RSS.
const maxWave = 1024

// waveSize returns the size of the next wave of a cost-sized run (Wave 0)
// from the last fold: folded trials took elapsed from the previous fold.
// It aims the next wave at waveTarget — folded·waveTarget/elapsed trials —
// never below DefaultWave, never above maxWave, and at most twice the
// current size, so one fast wave cannot overshoot. A wave that took
// waveTarget or longer for DefaultWave trials keeps the size at
// DefaultWave: expensive trials are dispatched exactly as with a fixed
// wave.
func waveSize(folded int, elapsed time.Duration, current int) int {
	n := maxWave
	if elapsed > 0 {
		n = int(int64(folded) * int64(waveTarget) / int64(elapsed))
	}
	return max(DefaultWave, min(n, 2*current, maxWave))
}

// launchSlot starts (or restarts) a shard's worker: connection, sender and
// reader goroutines, and the job header. The caller routes errors through
// slotDown so launch failures consume relaunch budget like any death.
func (co *coordinator) launchSlot(s *shardSlot) error {
	c, err := s.launcher.Launch(s.id, len(co.slots))
	if err != nil {
		return err
	}
	s.conn = c
	s.sendq = make(chan Msg, sendQueueCap)
	s.health = healthLaunching
	s.lastHeard = time.Now()
	gen := s.gen
	co.pumps.Add(2)
	go co.sender(s.id, gen, c, s.sendq)
	go co.reader(s.id, gen, c.R)
	s.sendq <- Msg{
		Type:   TypeJob,
		Shard:  s.id,
		Shards: len(co.slots),
		Seed:   co.opts.Seed,
		Hash:   co.hash,
		Spec:   co.opts.Spec,
	}
	return nil
}

// sender performs a connection's writes off the event loop, so a slow or
// hung worker can never block dispatching. A write failure is reported as a
// death event; the queue is then drained until the event loop closes it.
func (co *coordinator) sender(shard, gen int, c *Conn, sendq chan Msg) {
	defer co.pumps.Done()
	for m := range sendq {
		if err := c.send(&m); err != nil {
			co.msgs <- shardMsg{shard: shard, gen: gen, err: fmt.Errorf("send %s: %w", m.Type, err), sendErr: true}
			// The failed command, and everything queued behind it, never
			// reached the worker; report each so the fold loop knows which
			// indices can no longer arrive.
			co.msgs <- shardMsg{shard: shard, gen: gen, ms: []Msg{m}, undelivered: true}
			for m := range sendq {
				co.msgs <- shardMsg{shard: shard, gen: gen, ms: []Msg{m}, undelivered: true}
			}
			return
		}
	}
}

// reader pumps a connection's protocol frames to the event loop, every frame
// already buffered in one send. EOF mid-run means the worker died (a
// worker that exits cleanly does so only after a halt, when nobody is
// waiting on its messages); decode errors mean it is emitting garbage.
// Both become death events, sent after the frames decoded before them.
func (co *coordinator) reader(shard, gen int, r io.ReadCloser) {
	defer co.pumps.Done()
	dec := newMsgReader(r)
	for {
		ms, err := dec.batch()
		if len(ms) > 0 {
			co.msgs <- shardMsg{shard: shard, gen: gen, ms: ms}
		}
		if err != nil {
			if err == io.EOF {
				err = errors.New("worker exited")
			}
			co.msgs <- shardMsg{shard: shard, gen: gen, err: err}
			return
		}
	}
}

// awaitEvent blocks until one event is processed: a worker message or
// death, a liveness/relaunch deadline, a member joining the fleet, or the
// caller's interrupt.
func (co *coordinator) awaitEvent() {
	var timerC <-chan time.Time
	if dl, ok := co.nextDeadline(); ok {
		// One timer serves the whole run. Since Go 1.23 a timer's channel
		// is unbuffered and Reset discards any tick of the previous
		// setting, so a stale deadline cannot fire into this select.
		if co.timer == nil {
			co.timer = time.NewTimer(time.Until(dl))
		} else {
			co.timer.Reset(time.Until(dl))
		}
		timerC = co.timer.C
	}
	select {
	case sm := <-co.msgs:
		co.handle(sm)
	case l, ok := <-co.join:
		// A closed Join channel just stops admitting; a nil one (no joins
		// configured, or closed and nilled) never fires.
		if !ok {
			co.join = nil
			return
		}
		co.admit(l)
	case <-timerC:
		co.checkDeadlines(time.Now())
	case <-co.intr:
		// Finish the wave in flight, checkpoint, and return; the fold loop
		// checks the flag after its next checkpoint. A nil channel (no
		// interrupt configured, or one already taken) never fires.
		co.interrupted = true
		co.intr = nil
	}
}

// admit adds one late joiner as a new member slot and launches its worker;
// the joiner handshakes against the same spec hash as everyone else and is
// dealt its balanced share starting with the next dispatched wave — waves
// already dispatched keep their assignments, so joining can never reassign
// in-flight work. Launch failures burn the joiner's relaunch budget exactly
// like a launch-time failure of an initial member.
func (co *coordinator) admit(l Launcher) {
	s := &shardSlot{id: len(co.slots), launcher: l}
	co.slots = append(co.slots, s)
	co.res.Joined++
	co.logf("dist: member %d joined the fleet (%d members)\n", s.id, len(co.slots))
	if err := co.launchSlot(s); err != nil {
		co.slotDown(s, err, false)
	}
}

// nextDeadline returns the earliest pending relaunch or liveness deadline.
func (co *coordinator) nextDeadline() (time.Time, bool) {
	var dl time.Time
	ok := false
	add := func(t time.Time) {
		if !ok || t.Before(dl) {
			dl, ok = t, true
		}
	}
	for _, s := range co.slots {
		switch s.health {
		case healthBackoff:
			add(s.relaunchAt)
		case healthLaunching, healthReady:
			if co.opts.WorkerTimeout > 0 && co.busy(s) {
				add(s.lastHeard.Add(co.opts.WorkerTimeout))
			}
		}
	}
	return dl, ok
}

// checkDeadlines fires due relaunches and declares silent busy workers
// dead. Only busy shards (mid-handshake or owing dispatched trials) have a
// liveness deadline: an idle worker has nothing to say.
func (co *coordinator) checkDeadlines(now time.Time) {
	for _, s := range co.slots {
		switch s.health {
		case healthBackoff:
			if !now.Before(s.relaunchAt) {
				co.relaunch(s)
			}
		case healthLaunching, healthReady:
			if co.opts.WorkerTimeout > 0 && co.busy(s) && now.Sub(s.lastHeard) >= co.opts.WorkerTimeout {
				co.slotDown(s, fmt.Errorf("no protocol traffic in %v (worker hung)", co.opts.WorkerTimeout), false)
			}
		}
	}
}

// busy reports whether a shard owes the coordinator anything — a hello or
// dispatched trial results — and is therefore subject to the liveness
// deadline.
func (co *coordinator) busy(s *shardSlot) bool {
	return s.health == healthLaunching || s.owed > 0
}

// handle processes one worker event on the event loop: a death, or a
// batch of messages in stream order. A message that severs the connection
// bumps the generation, so the rest of its batch is dropped like any dead
// incarnation's trailing frames.
func (co *coordinator) handle(sm shardMsg) {
	s := co.slots[sm.shard]
	if sm.gen != s.gen {
		return // a dead incarnation's trailing message
	}
	if sm.err != nil {
		if s.health == healthLost {
			// A NoRelaunch straggler kept alive for its in-flight results:
			// when its result stream also ends, sever it so the fold loop
			// stops waiting on anything it still owes.
			if !sm.sendErr && s.conn != nil {
				co.teardown(s)
			}
			return
		}
		if errors.Is(sm.err, errProtocolVersion) {
			// A cross-version worker is a build mismatch: every relaunch
			// would reproduce it, so fail the run naming the shard.
			co.setFatal(fmt.Errorf("dist: shard %d/%d: %v", s.id, len(co.slots), sm.err))
			co.markLost(s)
			return
		}
		co.slotDown(s, sm.err, sm.sendErr)
		return
	}
	if sm.undelivered {
		for i := range sm.ms {
			co.markUndelivered(s, &sm.ms[i])
		}
		return
	}
	s.lastHeard = time.Now()
	for i := range sm.ms {
		if sm.gen != s.gen {
			return
		}
		co.handleMsg(s, &sm.ms[i])
	}
}

// handleMsg processes one message from a shard's live connection.
func (co *coordinator) handleMsg(s *shardSlot, m *Msg) {
	switch m.Type {
	case TypeHello:
		if s.health != healthLaunching || m.Shard != s.id || m.Hash != co.hash {
			// A mis-addressed or wrong-build worker is a configuration
			// error; relaunching would reproduce it.
			co.setFatal(fmt.Errorf("dist: shard %d sent bad hello (type %s, shard %d, hash %.12s)",
				s.id, m.Type, m.Shard, m.Hash))
			co.markLost(s)
			return
		}
		s.health = healthReady
	case TypeResult:
		if !co.inSpan(m.Trial) {
			return // a duplicate of a folded trial, or never dispatched
		}
		r := co.rec(m.Trial)
		r.data, r.have = m.Data, true
		if r.owner != nil {
			r.owner.owed--
			r.owner = nil
		}
	case TypeWaveDone:
		// Wave completion itself is tracked by index coverage, which
		// survives requeues and redistribution. The barrier's echoed index
		// list is the frame-integrity check: the connection delivered every
		// result frame before this wavedone, so an echoed index this shard
		// still owns with no result pending means the result frame was lost
		// in transit (a lossy or corrupting transport). The worker is
		// recovered like any failed one — recomputation is free of
		// determinism risk. Indices requeued to another member in the
		// meantime (owner moved on) and already-folded duplicates are
		// skipped, so a healthy barrier can never be misread as loss.
		for _, i := range m.Indices {
			if !co.inSpan(i) {
				continue
			}
			if r := co.rec(i); r.owner == s && !r.have {
				co.slotDown(s, fmt.Errorf("wave [%d,%d) barrier: result frame for trial %d lost in transit", m.Lo, m.Hi, i), false)
				return
			}
		}
	case TypeError:
		// Worker-side errors are deterministic job or trial failures —
		// a relaunch would fail identically — so they abort the run once
		// the still-completable waves have folded and checkpointed.
		if s.health == healthLaunching {
			co.setFatal(fmt.Errorf("dist: shard %d rejected job: %s", s.id, m.Err))
		} else {
			co.setFatal(fmt.Errorf("dist: shard %d failed: %s", s.id, m.Err))
		}
		co.markLost(s)
	default:
		co.slotDown(s, fmt.Errorf("unexpected %s message", m.Type), false)
	}
}

// markUndelivered records that a command never reached its worker. For a
// wave command the affected unreceived indices become dead: nothing will
// ever compute them on this connection. Recovery requeues them anyway
// (relaunch resends everything still owed), so the record only decides
// when a NoRelaunch abort stops waiting.
func (co *coordinator) markUndelivered(s *shardSlot, m *Msg) {
	if m.Type != TypeWave {
		return
	}
	for _, i := range m.Indices {
		if !co.inSpan(i) {
			continue
		}
		if r := co.rec(i); r.owner == s && !r.have {
			r.dead = true
		}
	}
}

// slotDown declares a shard's current worker dead for a recoverable cause
// (crash, hang, garbage, write failure) and schedules its recovery:
// relaunch with capped exponential backoff while budget remains, otherwise
// redistribution of its index stream across the survivors. With recovery
// disabled (NoRelaunch) the death is instead fatal, preserving the
// pre-recovery loss bound: results the worker already received commands
// for still fold (resultsMayFlow keeps its result stream open), so an
// abort loses at most the undelivered tail.
func (co *coordinator) slotDown(s *shardSlot, cause error, resultsMayFlow bool) {
	if s.health == healthBackoff || s.health == healthLost {
		return
	}
	s.lastErr = cause
	if co.maxRelaunches < 0 {
		if !resultsMayFlow {
			co.teardown(s)
		}
		s.health = healthLost
		co.setFatal(fmt.Errorf("dist: shard %d: %w", s.id, cause))
		return
	}
	co.teardown(s)
	if s.relaunches >= co.maxRelaunches {
		s.health = healthLost
		co.logf("dist: shard %d/%d worker failed (%v); relaunch budget %d exhausted, redistributing %d outstanding trials\n",
			s.id, len(co.slots), cause, co.maxRelaunches, s.owed)
		co.redistribute(s)
		if co.allLost() {
			co.setFatal(fmt.Errorf("dist: all %d shards failed permanently; shard %d last failure: %w",
				len(co.slots), s.id, cause))
		}
		return
	}
	s.relaunches++
	d := co.backoff << (s.relaunches - 1)
	if maxB := co.backoff << 3; d > maxB {
		d = maxB
	}
	s.health = healthBackoff
	s.relaunchAt = time.Now().Add(d)
	co.logf("dist: shard %d/%d worker died (%v); relaunch %d/%d in %v\n",
		s.id, len(co.slots), cause, s.relaunches, co.maxRelaunches, d)
}

// teardown severs a shard's current connection: bumps the generation (so
// trailing messages are ignored), stops the sender, and kills and reaps the
// worker off the event loop.
func (co *coordinator) teardown(s *shardSlot) {
	s.gen++
	if s.sendq != nil {
		close(s.sendq)
		s.sendq = nil
	}
	if c := s.conn; c != nil {
		s.conn = nil
		co.reapers.Add(1)
		go func() {
			defer co.reapers.Done()
			c.kill()
			if c.Wait != nil {
				if err := c.Wait(); err != nil {
					co.logf("dist: shard %d/%d worker exit status: %v\n", s.id, len(co.slots), err)
				}
			}
		}()
	}
}

// markLost retires a shard after a deterministic failure, without
// redistribution: the run is aborting (setFatal precedes every call), so
// requeuing its work would only recompute results that can never fold.
func (co *coordinator) markLost(s *shardSlot) {
	if s.health == healthLost {
		return
	}
	co.teardown(s)
	s.health = healthLost
}

// relaunch restarts a dead shard's worker and requeues everything it still
// owes as explicit-index waves.
func (co *coordinator) relaunch(s *shardSlot) {
	co.logf("dist: relaunching shard %d/%d worker (attempt %d/%d)\n",
		s.id, len(co.slots), s.relaunches, co.maxRelaunches)
	// Leave backoff before attempting the launch: slotDown ignores shards
	// already in healthBackoff, so a failed Launch would otherwise loop on
	// its expired deadline forever without consuming relaunch budget.
	s.health = healthLaunching
	if err := co.launchSlot(s); err != nil {
		co.slotDown(s, fmt.Errorf("relaunch: %w", err), false)
		return
	}
	co.res.Relaunches++
	co.sendIndices(s, co.owned(s), true)
}

// redistribute hands a lost shard's outstanding indices to the surviving
// shards. Future waves route around the lost shard in dispatch.
func (co *coordinator) redistribute(from *shardSlot) {
	idx := co.owned(from)
	from.owed = 0
	co.assign(idx, true)
}

// owned returns, in index order, the dispatched indices a shard still owes.
func (co *coordinator) owned(s *shardSlot) []int {
	var idx []int
	for i := co.done; i < co.next; i++ {
		if co.rec(i).owner == s {
			idx = append(idx, i)
		}
	}
	return idx
}

// assign deals sorted indices round-robin across the non-lost shards and
// dispatches them as explicit-index waves (immediately to live shards; a
// shard in backoff receives its share when it relaunches). It serves both
// first-time wave dispatch and the orphan-requeue path (requeue accounting
// on). The deal starts at idx[0] mod the target count, so a contiguous wave
// over an intact fleet lands index i on shard i mod S. With no targets left
// nothing is dealt, which the fold loop reads as "wave not completable" once
// the all-lost fatal error is set.
func (co *coordinator) assign(idx []int, requeue bool) {
	if len(idx) == 0 {
		return
	}
	var targets []*shardSlot
	for _, t := range co.slots {
		if t.health != healthLost {
			targets = append(targets, t)
		}
	}
	if len(targets) == 0 {
		return
	}
	// idx[j] goes to target (idx[0]+j) mod nt, so each target's share is a
	// sorted stride of idx.
	nt := len(targets)
	for k, t := range targets {
		share := make([]int, 0, (len(idx)+nt-1)/nt)
		for j := (k - idx[0]%nt + nt) % nt; j < len(idx); j += nt {
			co.rec(idx[j]).owner = t
			share = append(share, idx[j])
		}
		t.owed += len(share)
		co.sendIndices(t, share, requeue)
	}
}

// sendIndices enqueues explicit-index waves for the sorted indices idx,
// grouped by the wave each index belongs to so worker-side wave accounting
// stays well-formed. The messages keep subslices of idx, so the caller must
// not reuse it. requeue marks the dispatch as failure recovery for Result
// accounting; first-time dispatch uses the same wire shape but is not a
// requeue.
func (co *coordinator) sendIndices(s *shardSlot, idx []int, requeue bool) {
	if s.sendq == nil {
		return
	}
	if requeue {
		co.res.Requeued += len(idx)
	}
	w := 0
	for start := 0; start < len(idx); {
		// Requeued indices are all unfolded, so each lies in a wave in
		// flight; both lists are sorted.
		for co.inflight[w].hi <= idx[start] {
			w++
		}
		wv := co.inflight[w]
		end := start
		for end < len(idx) && idx[end] < wv.hi {
			end++
		}
		if !co.enqueue(s, &Msg{Type: TypeWave, Lo: wv.lo, Hi: wv.hi, Indices: idx[start:end:end]}) {
			return
		}
		start = end
	}
}

// dispatchNext deals the next wave of the schedule, co.size indices from
// where the last one ended, as explicit-index waves balanced across the
// current member set. It reports false, dispatching nothing, once the
// schedule reaches the trial cap or this invocation's MaxWaves. Ownership
// is decided per wave at dispatch time, so a member set that grew or
// shrank since the last wave simply changes who computes what, never what
// any trial computes.
func (co *coordinator) dispatchNext() bool {
	if co.next >= co.opts.MaxTrials || co.opts.MaxWaves > 0 && co.dispatched >= co.opts.MaxWaves {
		return false
	}
	wv := waveRange{co.next, min(co.next+co.size, co.opts.MaxTrials)}
	co.growRing(wv.hi - co.done)
	co.inflight = append(co.inflight, wv)
	co.next, co.dispatched = wv.hi, co.dispatched+1
	if co.fatal != nil {
		return true
	}
	idx := make([]int, 0, wv.hi-wv.lo)
	for i := wv.lo; i < wv.hi; i++ {
		idx = append(idx, i)
	}
	co.assign(idx, false)
	return true
}

// enqueue hands a command to the shard's sender without ever blocking the
// event loop. Overflow means the shard has stopped consuming commands far
// beyond any legitimate backlog, so it is treated as a death.
func (co *coordinator) enqueue(s *shardSlot, m *Msg) bool {
	if s.sendq == nil {
		return false
	}
	select {
	case s.sendq <- *m:
		return true
	default:
		co.slotDown(s, fmt.Errorf("command queue overflow"), true)
		co.markUndelivered(s, m)
		return false
	}
}

// covered reports whether every index of the wave has a result received.
// It advances the coverage cursor, so each index is looked up about once
// however many events the wave waits through.
func (co *coordinator) covered(wv waveRange) bool {
	for co.cover < wv.hi {
		if !co.rec(co.cover).have {
			return false
		}
		co.cover++
	}
	return true
}

// inSpan reports whether index i is dispatched and unfolded, in the span
// [done, next) the ring holds.
func (co *coordinator) inSpan(i int) bool {
	return i >= co.done && i < co.next
}

// rec returns index i's record; i must lie in the span [done, next).
func (co *coordinator) rec(i int) *trialRec {
	return &co.ring[i&(len(co.ring)-1)]
}

// growRing makes the ring hold a span of n indices from done, moving the
// records of [done, next) into a longer ring when the current one is
// shorter than n.
func (co *coordinator) growRing(n int) {
	if n <= len(co.ring) {
		return
	}
	size := max(minRing, len(co.ring))
	for size < n {
		size *= 2
	}
	ring := make([]trialRec, size)
	for i := co.done; i < co.next; i++ {
		ring[i&(size-1)] = *co.rec(i)
	}
	co.ring = ring
}

// completable reports whether the wave can still be covered: every missing
// index is owned by a shard that is alive or will be relaunched. It is
// consulted only once a fatal error is latched, to fold what remains
// foldable before surfacing the error — so an abort loses at most the
// undispatched tail, exactly as an abort without pipelining would.
func (co *coordinator) completable(wv waveRange) bool {
	for i := wv.lo; i < wv.hi; i++ {
		r := co.rec(i)
		if r.have {
			continue
		}
		if r.owner == nil {
			return false
		}
		// A lost shard can still deliver in NoRelaunch mode while its
		// result stream is open and the index's command was delivered.
		if s := r.owner; s.health == healthLost && (s.conn == nil || r.dead) {
			return false
		}
	}
	return true
}

// allLost reports whether every shard has been written off.
func (co *coordinator) allLost() bool {
	for _, s := range co.slots {
		if s.health != healthLost {
			return false
		}
	}
	return true
}

// setFatal latches the first unrecoverable error.
func (co *coordinator) setFatal(err error) {
	if co.fatal == nil {
		co.fatal = err
	}
}

// logf writes one diagnostic line; reapers log concurrently with the event
// loop, hence the lock.
func (co *coordinator) logf(format string, args ...any) {
	co.logMu.Lock()
	defer co.logMu.Unlock()
	fmt.Fprintf(co.log, format, args...)
}

// cleanup halts the live workers (best effort), drains their streams, and
// reaps them; it runs on every exit path, including mid-wave aborts with
// results still in flight. Workers that refuse to wind down within a grace
// period — hung mid-protocol, holding their streams open — are
// force-killed, so cleanup cannot deadlock.
func (co *coordinator) cleanup() {
	if co.timer != nil {
		co.timer.Stop()
	}
	var live []*Conn
	for _, s := range co.slots {
		if s.conn == nil {
			continue
		}
		live = append(live, s.conn)
		close(s.sendq)
		s.sendq = nil
	}
	var wind sync.WaitGroup
	for _, c := range live {
		wind.Add(1)
		go func(c *Conn) {
			defer wind.Done()
			// Halting is best-effort: a worker that already exited (or
			// died) just yields a write error. The locked send serializes
			// against a sender goroutine still mid-write on the same
			// connection.
			_ = c.send(&Msg{Type: TypeHalt})
			c.W.Close()
		}(c)
	}
	// Drain concurrently with halting: a worker still mid-wave keeps
	// emitting results until it reaches the barrier, and those writes must
	// keep flowing (reader goroutine -> msgs -> this drain) or the worker
	// would never get around to reading the halt. Synchronous in-process
	// pipes (PipeLauncher) would deadlock otherwise.
	settled := make(chan struct{})
	go func() {
		wind.Wait()
		co.pumps.Wait()
		close(co.msgs)
	}()
	go func() {
		for range co.msgs {
		}
		close(settled)
	}()
	grace := 5 * time.Second
	if co.opts.WorkerTimeout > 0 && co.opts.WorkerTimeout < grace {
		grace = co.opts.WorkerTimeout
	}
	select {
	case <-settled:
	case <-time.After(grace):
		for _, c := range live {
			c.kill()
		}
		<-settled
	}
	co.reapers.Wait()
	for _, c := range live {
		if c.Wait != nil {
			_ = c.Wait()
		}
	}
}
