package dist

import (
	"fmt"
	"io"
)

// TrialRunner computes the results of the given global trial indices,
// calling emit exactly once per index with the trial's encoded payload.
// Implementations must be index-deterministic — the payload for index i may
// depend only on the job spec, the seed, and i — and may emit in any order;
// the coordinator reorders by global index before folding. A returned error
// aborts the whole distributed run.
type TrialRunner func(indices []int, emit func(trial int, data []byte)) error

// BuildRunner constructs a TrialRunner from a job spec and the trial-stream
// family seed. It is how a worker binary turns the opaque spec it received
// over the wire into executable trials; experiment.ShardBuilder provides
// the USD instance.
type BuildRunner func(spec []byte, seed uint64) (TrialRunner, error)

// Serve runs the worker side of the protocol on a command stream r and a
// result stream w (a worker process's stdin and stdout): it reads the job
// header, verifies the spec hash and the shard identity against the
// expected one, builds the trial runner, and then runs each wave command's
// explicit index list until a halt or EOF. EOF before halt means the
// coordinator died (or aborted); Serve treats it as a clean shutdown so
// killed coordinators do not leave workers complaining. A halt before the
// job is clean too: the coordinator's shutdown halt can overtake a job
// header still queued for an idle worker.
func Serve(r io.Reader, w io.Writer, shard, shards int, build BuildRunner) error {
	if build == nil {
		return fmt.Errorf("dist: Serve needs a BuildRunner")
	}
	dec := newMsgReader(r)
	job, err := dec.next()
	if err != nil {
		if err == io.EOF {
			return nil
		}
		return err
	}
	if job.Type == TypeHalt {
		return nil
	}
	if job.Type != TypeJob {
		return fmt.Errorf("dist: worker expected %s message first, got %s", TypeJob, job.Type)
	}
	if job.Shard != shard || job.Shards != shards {
		return failWorker(w, fmt.Errorf("dist: job addressed to shard %d/%d, serving %d/%d",
			job.Shard, job.Shards, shard, shards))
	}
	if got := HashSpec(job.Spec); got != job.Hash {
		return failWorker(w, fmt.Errorf("dist: spec hash mismatch: coordinator sent %.12s, received bytes hash to %.12s",
			job.Hash, got))
	}
	runner, err := build(job.Spec, job.Seed)
	if err != nil {
		return failWorker(w, fmt.Errorf("dist: build trial runner: %w", err))
	}
	if err := writeMsg(w, Msg{Type: TypeHello, Shard: shard, Shards: shards, Hash: job.Hash}); err != nil {
		return err
	}

	for {
		m, err := dec.next()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch m.Type {
		case TypeWave:
			// Every index draws the stream derived from its global
			// position, so which worker computes it cannot matter.
			var emitErr error
			emitted := make([]int, 0, len(m.Indices))
			err := runner(m.Indices, func(trial int, data []byte) {
				if emitErr == nil {
					emitErr = writeMsg(w, Msg{Type: TypeResult, Trial: trial, Data: data})
				}
				emitted = append(emitted, trial)
			})
			if err == nil {
				err = emitErr
			}
			if err != nil {
				return failWorker(w, fmt.Errorf("dist: shard %d wave [%d,%d): %w", shard, m.Lo, m.Hi, err))
			}
			// The barrier echoes the indices actually emitted — the
			// coordinator's frame-integrity evidence: stream ordering puts
			// every result line before this wavedone, so an echoed index the
			// coordinator still lacks a result for was lost in transit.
			if err := writeMsg(w, Msg{Type: TypeWaveDone, Lo: m.Lo, Hi: m.Hi, Indices: emitted}); err != nil {
				return err
			}
		case TypeHalt:
			return nil
		default:
			return failWorker(w, fmt.Errorf("dist: worker got unexpected %s message", m.Type))
		}
	}
}

// failWorker reports a worker-side error to the coordinator (best effort)
// and returns it.
func failWorker(w io.Writer, err error) error {
	_ = writeMsg(w, Msg{Type: TypeError, Err: err.Error()})
	return err
}
