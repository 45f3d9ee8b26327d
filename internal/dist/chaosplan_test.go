package dist

import "time"

// The chaos plans below build the fault schedules the chaos suites replay.

// ChaosSchedule builds a deterministic, seed-dependent fault schedule that
// kills each shard's first worker incarnation exactly once, cycling the
// fault kinds across shards with a seeded rotation and small trigger
// counts. Schedules are pure functions of (seed, shards), so a failing
// chaos run reproduces exactly.
func ChaosSchedule(seed uint64, shards int) []Fault {
	x := seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	kinds := []FaultKind{FaultCrashBeforeWave, FaultCrashMidWave, FaultHang, FaultGarbage}
	rot := int(next() >> 33)
	out := make([]Fault, shards)
	for i := range out {
		out[i] = Fault{
			Shard: i,
			Kind:  kinds[(rot+i)%len(kinds)],
			After: 1 + int(next()>>33)%3,
		}
	}
	return out
}

// NetworkChaosSchedule is ChaosSchedule's network-shaped sibling: a
// deterministic, seed-dependent plan that gives each shard's first worker
// incarnation one network fault — partition, dropped frame, slow link, or
// crash-on-connect — cycling the kinds across shards with a seeded
// rotation. Like ChaosSchedule it is a pure function of (seed, shards), so
// a failing run reproduces exactly. Slow links get a small Delay, well
// under any sane liveness deadline, since a slow link is the fault the
// coordinator must tolerate rather than react to.
func NetworkChaosSchedule(seed uint64, shards int) []Fault {
	x := seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	kinds := []FaultKind{FaultPartition, FaultDropFrames, FaultSlowLink, FaultCrashOnConnect}
	rot := int(next() >> 33)
	out := make([]Fault, shards)
	for i := range out {
		f := Fault{
			Shard: i,
			Kind:  kinds[(rot+i)%len(kinds)],
			After: 1 + int(next()>>33)%3,
		}
		if f.Kind == FaultSlowLink {
			f.Delay = time.Duration(1+int(next()>>33)%3) * time.Millisecond
		}
		out[i] = f
	}
	return out
}

// ReconnectStorm schedules a shard's first count incarnations to die the
// instant they connect — the reconnect-storm scenario: every relaunch
// immediately fails again, exercising the backoff ladder. Incarnation count
// (the count+1-th) connects cleanly, so a run self-heals as long as count
// is within the relaunch budget.
func ReconnectStorm(shard, count int) []Fault {
	out := make([]Fault, count)
	for i := range out {
		out[i] = Fault{Shard: shard, Launch: i, Kind: FaultCrashOnConnect}
	}
	return out
}
