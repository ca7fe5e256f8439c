package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Spec is one channel request {src, dst, C, P, D} in timeslots.
type Spec struct {
	Src, Dst uint16
	C, P, D  int64
}

// Topology is the layout a workload runs on: a single-switch star
// (Switches empty) or a multi-switch fabric.
type Topology struct {
	Nodes    []uint16          // every end node
	Switches []uint16          // empty for a star
	Trunks   [][2]uint16       // inter-switch links
	Home     map[uint16]uint16 // node -> switch (fabrics only)
}

// Star reports whether the layout is a single-switch star.
func (t *Topology) Star() bool { return len(t.Switches) == 0 }

// Arrival is one establish of the open-loop stream: due At after the
// phase starts, released Hold after it was due (or as soon as its
// reply lands, if that is later).
type Arrival struct {
	At   time.Duration
	Hold time.Duration
	Spec Spec
}

// segments is how many daemons one run measures on, one after another.
// Each runs phase one, its own churn stream (70% of its share of the
// run), then phase two: the sequential pass (15%) and the recovery
// passes (15%). Three short
// segments rather than one long one keep the load-adaptive schemes'
// state closer from seed to seed, and sample the host's slow spells in
// three windows instead of one.
const segments = 3

// Workload is everything one benchmark run sends: the topology document,
// the preloaded population, the phase-one churn streams (one per
// segment) and the phase-two recovery plan. All of it is drawn from the
// seed.
type Workload struct {
	Name     string
	Topo     Topology
	Preload  []Spec
	Streams  [][]Arrival
	Segment  time.Duration // length of one churn stream
	Seq      time.Duration // length of one sequential pass
	Recovery time.Duration // length of one daemon's recovery passes
	QueryHz  float64       // monitor polls of GET /v1/stats per second
	RateHz   float64       // mean establish arrivals per second
	HoldMean time.Duration
	MaxLive  int
	// Blocks are the station-restart batches of a star's phase two:
	// each is released (when held) and re-admitted with one atomic
	// establishAll.
	Blocks [][]Spec
	// BlockHeld marks blocks that are part of the preload (so a pass
	// releases them first).
	BlockHeld bool
	// FailTrunks are the trunks a fabric's phase two fails and repairs
	// in turn.
	FailTrunks [][2]uint16
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"star_wire", "star_fleet", "ring_failover"}

// buildWorkload draws the named workload from seed. seconds is the
// measured length of the run, shared evenly by the segments.
func buildWorkload(name string, seed int64, seconds int) (*Workload, error) {
	rng := rand.New(rand.NewSource(seed))
	share := time.Duration(seconds) * time.Second / segments
	w := &Workload{Name: name, Segment: share * 70 / 100, Seq: share * 15 / 100}
	w.Recovery = share - w.Segment - w.Seq
	switch name {
	case "star_wire":
		buildStarWire(w, rng)
	case "star_fleet":
		buildStarFleet(w, rng)
	case "ring_failover":
		buildRing(w, rng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// buildStarWire: 16 stations on one switch, 8 sources and 8 sinks drawn
// from them, light short-hold churn (C=1, P=4000, D=400) capped at 24
// live channels, no preload. Phase two re-admits one source station's
// eight channels per pass.
func buildStarWire(w *Workload, rng *rand.Rand) {
	for n := uint16(1); n <= 16; n++ {
		w.Topo.Nodes = append(w.Topo.Nodes, n)
	}
	perm := rng.Perm(16)
	var srcs, dsts []uint16
	for i, p := range perm {
		if i < 8 {
			srcs = append(srcs, uint16(p+1))
		} else {
			dsts = append(dsts, uint16(p+1))
		}
	}
	w.RateHz, w.HoldMean, w.MaxLive, w.QueryHz = 500, 40*time.Millisecond, 24, 50
	w.churn(rng, func() Spec {
		return Spec{Src: srcs[rng.Intn(len(srcs))], Dst: dsts[rng.Intn(len(dsts))], C: 1, P: 4000, D: 400}
	})
	for _, s := range srcs {
		var b []Spec
		for _, d := range dsts {
			b = append(b, Spec{Src: s, Dst: d, C: 1, P: 4000, D: 400})
		}
		w.Blocks = append(w.Blocks, b)
	}
}

// fleetPeriods are the periods of star_fleet channels; they divide 2400,
// which keeps every link's hyperperiod small.
var fleetPeriods = []int64{400, 600, 800, 1200}

// buildStarFleet: 100 sources (1..100) and 100 sinks (101..200) on one
// switch under ADPS. A preload of 30 channels per source, spread evenly
// over the sinks, then Poisson churn between uniformly drawn pairs. One
// churn request in ten is a bulk channel (C a quarter to a third of P),
// which often fails the demand test on its links: the rejections come
// from the requests themselves, not from load piling up on a few links,
// so their share repeats from seed to seed. Phase two re-admits one
// source station's preloaded channels per pass.
func buildStarFleet(w *Workload, rng *rand.Rand) {
	for n := uint16(1); n <= 200; n++ {
		w.Topo.Nodes = append(w.Topo.Nodes, n)
	}
	const perSource = 30
	sinks := rng.Perm(100)
	k := 0
	for s := uint16(1); s <= 100; s++ {
		var b []Spec
		for j := 0; j < perSource; j++ {
			d := uint16(101 + sinks[k%100])
			k++
			p := fleetPeriods[rng.Intn(len(fleetPeriods))]
			b = append(b, Spec{Src: s, Dst: d, C: 1 + rng.Int63n(2), P: p, D: p/2 + rng.Int63n(p/2+1)})
		}
		w.Preload = append(w.Preload, b...)
		w.Blocks = append(w.Blocks, b)
	}
	w.BlockHeld = true
	w.RateHz, w.HoldMean, w.MaxLive, w.QueryHz = 60, 3*time.Second, 400, 50
	w.churn(rng, func() Spec {
		src, dst := uint16(1+rng.Intn(100)), uint16(101+rng.Intn(100))
		p := fleetPeriods[rng.Intn(len(fleetPeriods))]
		c := 2 + rng.Int63n(7)
		if rng.Intn(10) == 0 {
			c = p/4 + rng.Int63n(p/12+1)
		}
		lo := max(p/2, 2*c) // D >= 2C, or the request is invalid
		return Spec{Src: src, Dst: dst, C: c, P: p, D: lo + rng.Int63n(p-lo+1)}
	})
}

// ringPeriods divide 4000.
var ringPeriods = []int64{1000, 2000, 4000}

// buildRing: four switches in a ring, eight stations on each. The
// preload holds channels between adjacent switches over every trunk plus
// same-switch channels; churn draws same-switch and adjacent-switch
// pairs only, whose shortest routes are unique. Phase two fails and
// repairs trunks 0-1 and 2-3 in turn.
func buildRing(w *Workload, rng *rand.Rand) {
	w.Topo.Home = map[uint16]uint16{}
	for s := uint16(0); s < 4; s++ {
		w.Topo.Switches = append(w.Topo.Switches, s)
		w.Topo.Trunks = append(w.Topo.Trunks, [2]uint16{s, (s + 1) % 4})
		for i := uint16(1); i <= 8; i++ {
			n := s*10 + i
			w.Topo.Nodes = append(w.Topo.Nodes, n)
			w.Topo.Home[n] = s
		}
	}
	w.FailTrunks = [][2]uint16{{0, 1}, {2, 3}}
	// spec draws a channel from a station of switch a to a station of
	// switch b (two distinct stations when a == b).
	spec := func(a, b uint16, cmax int64) Spec {
		i, j := rng.Intn(8), rng.Intn(8)
		for a == b && i == j {
			j = rng.Intn(8)
		}
		p := ringPeriods[rng.Intn(len(ringPeriods))]
		return Spec{Src: a*10 + 1 + uint16(i), Dst: b*10 + 1 + uint16(j), C: 1 + rng.Int63n(cmax), P: p, D: p/2 + rng.Int63n(p/2+1)}
	}
	const perTrunk = 120
	for s := uint16(0); s < 4; s++ {
		for i := 0; i < perTrunk; i++ {
			a, b := s, (s+1)%4
			if i%2 == 1 {
				a, b = b, a
			}
			w.Preload = append(w.Preload, spec(a, b, 2))
		}
		for i := 0; i < perTrunk/4; i++ {
			w.Preload = append(w.Preload, spec(s, s, 2))
		}
	}
	w.RateHz, w.HoldMean, w.MaxLive, w.QueryHz = 200, 500*time.Millisecond, 200, 50
	w.churn(rng, func() Spec {
		a := uint16(rng.Intn(4))
		b := a
		switch rng.Intn(3) {
		case 1:
			b = (a + 1) % 4
		case 2:
			b = (a + 3) % 4
		}
		return spec(a, b, 3)
	})
}

// churn draws the workload's churn streams, one per segment.
func (w *Workload) churn(rng *rand.Rand, draw func() Spec) {
	for k := 0; k < segments; k++ {
		w.Streams = append(w.Streams, poissonStream(rng, w.Segment, w.RateHz, w.HoldMean, w.MaxLive, draw))
	}
}

// poissonStream draws Poisson arrivals at rate over [0, length) with
// exponential holds. An arrival that would find maxLive channels of the
// stream live at its due time is dropped, so the cap is a property of
// the inputs, not of how fast the daemon answers.
func poissonStream(rng *rand.Rand, length time.Duration, rate float64, holdMean time.Duration, maxLive int, draw func() Spec) []Arrival {
	var out []Arrival
	var ends []time.Duration // release due times of live arrivals, sorted
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= length {
			return out
		}
		hold := time.Duration(rng.ExpFloat64() * float64(holdMean))
		spec := draw()
		i := sort.Search(len(ends), func(i int) bool { return ends[i] > at })
		ends = ends[i:]
		if len(ends) >= maxLive {
			continue
		}
		end := at + hold
		j := sort.Search(len(ends), func(i int) bool { return ends[i] > end })
		ends = append(ends, 0)
		copy(ends[j+1:], ends[j:])
		ends[j] = end
		out = append(out, Arrival{At: at, Hold: hold, Spec: spec})
	}
}

// scenarioDoc renders the topology document rtetherd loads: the layout
// and the partitioning scheme only.
func scenarioDoc(w *Workload) map[string]any {
	doc := map[string]any{"name": w.Name, "dps": "adps", "slots": 1000}
	if w.Topo.Star() {
		doc["nodes"] = w.Topo.Nodes
		return doc
	}
	var att []map[string]uint16
	for _, n := range w.Topo.Nodes {
		att = append(att, map[string]uint16{"node": n, "switch": w.Topo.Home[n]})
	}
	doc["topology"] = map[string]any{"switches": w.Topo.Switches, "trunks": w.Topo.Trunks, "attachments": att}
	return doc
}
