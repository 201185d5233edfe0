package workload

// liveSet tracks live allocations for the churn phase: FIFO order for
// grouped lifetimes, with tombstoned random removal for interleaved ones.
type liveSet struct {
	items    []handle
	head     int
	count    int
	ptrCount int // live pointer-bearing objects
}

type handle struct {
	addr uint64
	size uint64
	idx  int // birth-order allocation index (for trace recording)
	dead bool
	caps bool // object carries planted capabilities
}

func (l *liveSet) add(h handle) {
	// Before the slice grows, reuse the slots FIFO takes have consumed by
	// moving the tail down: take indexes relative to head, so this changes
	// no draw. Growing instead while the consumed prefix is short keeps the
	// copying amortised O(1) per add.
	if len(l.items) == cap(l.items) && l.head > 0 && l.head >= len(l.items)/4 {
		l.items = l.items[:copy(l.items, l.items[l.head:])]
		l.head = 0
	}
	l.items = append(l.items, h)
	l.count++
	if h.caps {
		l.ptrCount++
	}
}

// take removes either the oldest live handle (grouped lifetimes) or, with
// probability frag, a uniformly random one (temporal fragmentation).
func (l *liveSet) take(r *rng, frag float64) (handle, bool) {
	if l.count == 0 {
		return handle{}, false
	}
	if r.float() < frag {
		// Random pick: probe tombstoned slots.
		for tries := 0; tries < 32; tries++ {
			i := l.head + r.intn(len(l.items)-l.head)
			if !l.items[i].dead {
				l.items[i].dead = true
				l.count--
				if l.items[i].caps {
					l.ptrCount--
				}
				return l.items[i], true
			}
		}
		// Dense tombstones: fall through to FIFO.
	}
	for l.head < len(l.items) {
		h := l.items[l.head]
		l.head++
		if !h.dead {
			l.count--
			if h.caps {
				l.ptrCount--
			}
			return h, true
		}
	}
	return handle{}, false
}
