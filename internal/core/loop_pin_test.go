package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"repro/internal/conf"
	"repro/internal/rng"
	"repro/internal/u128"
)

// eventDigest hashes every event it watches — kind, opinion, count and the
// 128-bit clock — so a whole trajectory collapses to one SHA-256.
type eventDigest struct {
	h   hash.Hash
	buf [40]byte
	// windows and nones count EventBatch and EventNone events, so the pinned
	// record also shows which loop paths a run took.
	windows, nones int
}

func newEventDigest() *eventDigest { return &eventDigest{h: sha256.New()} }

func (d *eventDigest) Watch(_ *Simulator, ev Event) {
	binary.LittleEndian.PutUint64(d.buf[0:], uint64(ev.Kind))
	binary.LittleEndian.PutUint64(d.buf[8:], uint64(int64(ev.Opinion)))
	binary.LittleEndian.PutUint64(d.buf[16:], uint64(ev.Count))
	binary.LittleEndian.PutUint64(d.buf[24:], ev.Interactions.Hi)
	binary.LittleEndian.PutUint64(d.buf[32:], ev.Interactions.Lo)
	d.h.Write(d.buf[:])
	switch ev.Kind {
	case EventBatch:
		d.windows++
	case EventNone:
		d.nones++
	}
}

// pinLine renders a run's pinned record: outcome, winner, clock, the
// window and unproductive event counts, and the digest of its watched
// events.
func pinLine(r Result, d *eventDigest) string {
	return fmt.Sprintf("%v %d %d:%d w=%d none=%d %x", r.Outcome, r.Winner, r.Interactions.Hi, r.Interactions.Lo,
		d.windows, d.nones, d.h.Sum(nil))
}

// TestRunLoopPathsPinned pins every path through the run loop — window
// sampling (chained and categorical), geometric skip steps, single
// interactions without skipping, budget truncation, stop predicates, the
// exact fallback of an exact-only variant under a windowed kernel, and
// StepProductive — to the trajectories recorded before the exact and
// windowed loops were merged. Any change to the loop that alters a random
// draw, an event or the clock shows up here as a digest mismatch.
func TestRunLoopPathsPinned(t *testing.T) {
	classic := func(t *testing.T) *conf.Config {
		return mustConfig(t, []int64{3600, 3000, 2400, 1000}, 0)
	}
	stubborn := func(t *testing.T) *conf.Config {
		c := mustConfig(t, []int64{3600, 3000, 2400, 1000}, 0)
		c.Stubborn = []int64{20, 0, 0, 0}
		return c
	}
	truncate := u128.From64(60_000) // 6 parallel rounds: mid-run at n=10⁴
	watched := func(cfg func(*testing.T) *conf.Config, budget u128.U128, opts ...Option) func(*testing.T) string {
		return func(t *testing.T) string {
			s := newSim(t, cfg(t), 11, opts...)
			d := newEventDigest()
			return pinLine(s.RunWatched(budget, d), d)
		}
	}
	kernels := []Kernel{KernelExact, KernelBatched(0), KernelAuto(0)}
	variants := []struct {
		name string
		cfg  func(*testing.T) *conf.Config
		dyn  Dynamics
	}{{"classic", classic, Classic}, {"stubborn", stubborn, StubbornAgents}}

	type pinCase struct {
		name string
		run  func(*testing.T) string
	}
	var cases []pinCase
	for _, v := range variants {
		for _, kern := range kernels {
			for _, b := range []struct {
				name   string
				budget u128.U128
			}{{"truncated", truncate}, {"absorbed", NoBudget}} {
				cases = append(cases, pinCase{
					name: fmt.Sprintf("%s/%s/%s", v.name, kern.Name(), b.name),
					run:  watched(v.cfg, b.budget, WithKernel(kern), WithDynamics(v.dyn)),
				})
			}
		}
	}
	cases = append(cases,
		pinCase{"classic/exact/no-skip", watched(classic, NoBudget, WithSkipping(false))},
		pinCase{"classic/auto/run-until", func(t *testing.T) string {
			s := newSim(t, classic(t), 11, WithKernel(KernelAuto(0)))
			d := newEventDigest()
			r := s.RunUntil(NoBudget, func(s *Simulator) bool {
				// RunUntil has no watcher; digest the state the predicate sees.
				d.Watch(s, Event{Opinion: int(s.Undecided()), Count: int64(s.SumSquares().Lo), Interactions: s.Interactions()})
				_, top := s.Max()
				return top >= 7000
			})
			return pinLine(r, d)
		}},
		pinCase{"unconstrained/set-auto/absorbed", func(t *testing.T) string {
			s := newSim(t, mustConfig(t, []int64{300, 250, 200, 150}, 100), 11, WithDynamics(Unconstrained))
			s.SetKernel(KernelAuto(0))
			d := newEventDigest()
			return pinLine(s.RunWatched(NoBudget, d), d)
		}},
		pinCase{"classic/step-productive", func(t *testing.T) string {
			s, err := New(classic(t), rng.New(11))
			if err != nil {
				t.Fatal(err)
			}
			d := newEventDigest()
			for i := 0; i < 5000; i++ {
				d.Watch(s, s.StepProductive())
			}
			return pinLine(s.result(OutcomeBudget, -1), d)
		}},
	)

	want := map[string]string{
		"classic/exact/truncated":         "budget-exhausted -1 0:60000 w=0 none=0 3c5ce2ff8c47cc98c2d783d8683a75550625981bec916b6b9ec8749bb14379b3",
		"classic/exact/absorbed":          "consensus 0 0:229401 w=0 none=0 37057161375734fa087f7eaa023882ad971020a742c513828b976d041e2c71d9",
		"classic/batched/truncated":       "budget-exhausted -1 0:60000 w=264 none=0 0ac92ef1470854625e27779b6d41bc53ecd80e1a24d2a714ee9215b01fb0e768",
		"classic/batched/absorbed":        "consensus 0 0:221669 w=544 none=0 27bd9d769b6486bd64019f32a9b9b415e160f698f5b3524b0f7de5c0975ec963",
		"classic/auto/truncated":          "budget-exhausted -1 0:60000 w=303 none=0 d71b744ec27ad4dc0ce0f68a5d23acd4d1969461d0891ebddf8dd3ef4ccec066",
		"classic/auto/absorbed":           "consensus 0 0:218259 w=683 none=0 e3187227b46e69ee28c78ac0853898418c11e121163041c6339b0cfc2769caae",
		"stubborn/exact/truncated":        "budget-exhausted -1 0:60000 w=0 none=0 bbb3fc77afe0bf1c9ba7b91f4ac39164a48fca2c59d269a146050b0f0c0e4f27",
		"stubborn/exact/absorbed":         "dominance 0 0:133623 w=0 none=0 3e8fcb9175d1a34ab37b694a9df1bf94de3598041209d310a85c5b9f3bb9e013",
		"stubborn/batched/truncated":      "budget-exhausted -1 0:60000 w=371 none=0 7c2dda3859cd98d9126607e48aa9f7cfeac2bd87cec0deb971c29e55b961c18b",
		"stubborn/batched/absorbed":       "dominance 0 0:128681 w=713 none=0 e53471246cc6f11fdb07a521a4d45cec555cad96ca9cb98a672eb7fad70bac39",
		"stubborn/auto/truncated":         "budget-exhausted -1 0:60000 w=407 none=0 62491866bfd040d7f4f3b8c6478972784d7341afce12bda02629bb91fc10eb5b",
		"stubborn/auto/absorbed":          "dominance 0 0:163806 w=1030 none=0 7992922023b81d8330f0db9602ddca34c7e2c6cf5f285e6c74b10c56fe19c787",
		"classic/exact/no-skip":           "consensus 0 0:210505 w=0 none=153733 a42bc54d6677bf3265ccce92d945eb205b80c1f9311a17087b51f0c27d020d38",
		"classic/auto/run-until":          "budget-exhausted -1 0:115344 w=0 none=0 90a7403ff2c09f88a691ba39c5e21685a522086f709f39472cd667207c1d30bb",
		"unconstrained/set-auto/absorbed": "consensus 0 0:25984 w=0 none=0 eb4e6f7d06ff73ec53620ad8bedc0d7ebc712ef7c833056f7008ca5fb9228fac",
		"classic/step-productive":         "budget-exhausted -1 0:7909 w=0 none=0 1eae265dfc99c25ecead5879d2c105785693e50251cf15b6ef4670e683168a16",
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t); got != want[c.name] {
				t.Errorf("trajectory changed:\n got  %s\n want %s", got, want[c.name])
			}
		})
	}
}
