package main

// The traced run. It replays one request stream sequentially through
// each layer in-process — the admission controller (internal/core on a
// star, internal/topo on a fabric), rtether.Network, and internal/server
// over an in-memory pipe — timing every call into each layer's public
// functions. One request index is shared across the layers, so a layer's
// self time is its time minus the time of the layer below on the same
// request. Spans are kept in memory and written out when the run ends.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/server"
	"repro/internal/topo"
	"repro/rtether"
	"repro/rtether/wire"
)

type span struct {
	Req   int    `json:"req"`
	Layer string `json:"layer"`
	Op    string `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how the untraced runs pass it around.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) add(op string, req int, start, end time.Duration) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Req: req, Layer: "client", Op: op, Start: int64(start), End: int64(end)})
}

// timed runs f and records it as a span of layer.
func (l *spanLog) timed(layer, op string, req int, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	l.spans = append(l.spans, span{Req: req, Layer: layer, Op: op, Start: int64(t0.Sub(l.t0)), End: int64(t1.Sub(l.t0))})
	return t1.Sub(t0)
}

func (l *spanLog) flush(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- the layers ----

// layer is one entry point into the stack, driven with the same calls.
type layer interface {
	preload(specs []Spec) error
	// establish returns the channel's ID, or ok=false on a feasibility
	// rejection.
	establish(s Spec) (id uint32, ok bool, err error)
	release(id uint32) error
	stats() error
	close()
}

func coreSpec(s Spec) core.ChannelSpec {
	return core.ChannelSpec{Src: core.NodeID(s.Src), Dst: core.NodeID(s.Dst), C: s.C, P: s.P, D: s.D}
}

// ctrlLayer is the admission controller alone.
type ctrlLayer struct {
	star *core.Controller
	fab  *topo.Controller
}

func newCtrlLayer(t *Topology) *ctrlLayer {
	if t.Star() {
		return &ctrlLayer{star: core.NewController(core.Config{DPS: core.ADPS{}})}
	}
	tp := topo.NewTopology()
	for _, s := range t.Switches {
		_ = tp.AddSwitch(topo.SwitchID(s))
	}
	for _, tr := range t.Trunks {
		_ = tp.ConnectSwitches(topo.SwitchID(tr[0]), topo.SwitchID(tr[1]))
	}
	for _, n := range t.Nodes {
		_ = tp.AttachNode(core.NodeID(n), topo.SwitchID(t.Home[n]))
	}
	return &ctrlLayer{fab: topo.NewController(tp, topo.Config{DPS: topo.HADPS{}})}
}

func (c *ctrlLayer) preload(specs []Spec) error {
	cs := make([]core.ChannelSpec, len(specs))
	for i, s := range specs {
		cs[i] = coreSpec(s)
	}
	var err error
	if c.star != nil {
		_, err = c.star.RequestAll(cs)
	} else {
		_, err = c.fab.RequestAll(cs)
	}
	return err
}

func (c *ctrlLayer) establish(s Spec) (uint32, bool, error) {
	req := []core.Req{{Spec: coreSpec(s)}}
	var id uint32
	var err error
	if c.star != nil {
		chs, errs := c.star.RequestEachReq(req)
		if err = errs[0]; err == nil {
			id = uint32(chs[0].ID)
		}
	} else {
		chs, errs := c.fab.RequestEachReq(req)
		if err = errs[0]; err == nil {
			id = uint32(chs[0].ID)
		}
	}
	if errors.Is(err, core.ErrInfeasible) {
		return 0, false, nil
	}
	return id, err == nil, err
}

func (c *ctrlLayer) release(id uint32) error {
	if c.star != nil {
		return c.star.Release(core.ChannelID(id))
	}
	return c.fab.Release(core.ChannelID(id))
}

func (c *ctrlLayer) stats() error { return nil }
func (c *ctrlLayer) close()       {}

// counters returns the controller's cumulative per-link checks and
// verdict-cache hits.
func (c *ctrlLayer) counters() (checked, hits int) {
	if c.star != nil {
		return c.star.Stats().LinksChecked, c.star.SweepSkips()
	}
	return c.fab.LinksChecked(), c.fab.SweepSkips()
}

func (c *ctrlLayer) repartitioned() int {
	if c.star != nil {
		return len(c.star.Repartitioned())
	}
	return len(c.fab.Repartitioned())
}

// taskSets returns the task set of every loaded link.
func (c *ctrlLayer) taskSets() [][]edf.Task {
	var out [][]edf.Task
	if c.star != nil {
		st := c.star.State()
		for _, l := range st.Links() {
			out = append(out, st.TasksOn(l))
		}
		return out
	}
	st := c.fab.State()
	for _, e := range st.Edges() {
		out = append(out, st.TasksOn(e))
	}
	return out
}

// newNetwork builds the rtether.Network rtetherd would build from the
// workload's topology document.
func newNetwork(t *Topology) (*rtether.Network, error) {
	if t.Star() {
		n := rtether.New(rtether.WithADPS())
		for _, id := range t.Nodes {
			if err := n.AddNode(rtether.NodeID(id)); err != nil {
				return nil, err
			}
		}
		return n, nil
	}
	top := rtether.NewTopology()
	for _, s := range t.Switches {
		if err := top.AddSwitch(rtether.SwitchID(s)); err != nil {
			return nil, err
		}
	}
	for _, tr := range t.Trunks {
		if err := top.Trunk(rtether.SwitchID(tr[0]), rtether.SwitchID(tr[1])); err != nil {
			return nil, err
		}
	}
	for _, n := range t.Nodes {
		if err := top.Attach(rtether.NodeID(n), rtether.SwitchID(t.Home[n])); err != nil {
			return nil, err
		}
	}
	return rtether.New(rtether.WithTopology(top), rtether.WithHDPS(rtether.HADPS())), nil
}

// rtLayer is rtether.Network called in-process.
type rtLayer struct {
	net     *rtether.Network
	handles map[uint32]*rtether.Channel
}

func (l *rtLayer) preload(specs []Spec) error {
	_, err := l.establishAll(specs)
	return err
}

func (l *rtLayer) establishAll(specs []Spec) ([]uint32, error) {
	cs := make([]rtether.ChannelSpec, len(specs))
	for i, s := range specs {
		cs[i] = coreSpec(s)
	}
	chs, err := l.net.EstablishAll(cs)
	if err != nil {
		return nil, err
	}
	ids := make([]uint32, len(chs))
	for i, ch := range chs {
		ids[i] = uint32(ch.ID())
		l.handles[ids[i]] = ch
	}
	return ids, nil
}

func (l *rtLayer) establish(s Spec) (uint32, bool, error) {
	chs, errs := l.net.EstablishEachMixed([]rtether.EstablishReq{{Spec: coreSpec(s)}})
	if errors.Is(errs[0], rtether.ErrInfeasible) {
		return 0, false, nil
	}
	if errs[0] != nil {
		return 0, false, errs[0]
	}
	id := uint32(chs[0].ID())
	l.handles[id] = chs[0]
	return id, true, nil
}

func (l *rtLayer) release(id uint32) error {
	ch := l.handles[id]
	if ch == nil {
		return fmt.Errorf("no handle for channel %d", id)
	}
	delete(l.handles, id)
	return ch.Release()
}

func (l *rtLayer) stats() error {
	_ = l.net.AdmissionStats()
	return nil
}

func (l *rtLayer) close() { _ = l.net.Close() }

// pipeListener hands internal/server one in-memory connection.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (p *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-p.conns:
		return c, nil
	case <-p.closed:
		return nil, net.ErrClosed
	}
}

func (p *pipeListener) Close() error {
	p.once.Do(func() { close(p.closed) })
	return nil
}

func (p *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// srvLayer is internal/server with no socket: binary frames over an
// in-memory pipe for establish and release, the HTTP handler called
// directly for stats.
type srvLayer struct {
	net    *rtether.Network
	srv    *server.Server
	conn   net.Conn
	served chan error
	buf    []byte
	wbuf   []byte
	next   uint32
}

func newSrvLayer(t *Topology) (*srvLayer, error) {
	n, err := newNetwork(t)
	if err != nil {
		return nil, err
	}
	l := &srvLayer{net: n, srv: server.New(server.Config{Network: n}), served: make(chan error, 1)}
	ln := &pipeListener{conns: make(chan net.Conn, 1), closed: make(chan struct{})}
	cli, srv := net.Pipe()
	ln.conns <- srv
	l.conn = cli
	go func() { l.served <- l.srv.ServeBinary(ln) }()
	return l, nil
}

func (l *srvLayer) call(enc func(dst []byte, id uint32) []byte) (wire.Frame, error) {
	l.next++
	l.wbuf = enc(l.wbuf[:0], l.next)
	if _, err := l.conn.Write(l.wbuf); err != nil {
		return wire.Frame{}, err
	}
	f, buf, err := wire.ReadFrame(l.conn, l.buf)
	l.buf = buf
	if err == nil && f.ReqID != l.next {
		err = fmt.Errorf("reply for request %d, want %d", f.ReqID, l.next)
	}
	if err == nil && f.Type == wire.MsgError {
		we, derr := wire.DecodeError(f.Payload)
		if derr != nil {
			return f, derr
		}
		return f, we
	}
	return f, err
}

func (l *srvLayer) preload(specs []Spec) error {
	ws := make([]wire.Spec, len(specs))
	for i, s := range specs {
		ws[i] = wireSpec(s)
	}
	_, err := l.call(func(dst []byte, id uint32) []byte { return wire.AppendEstablishAll(dst, id, ws) })
	return err
}

func (l *srvLayer) establish(s Spec) (uint32, bool, error) {
	ws := wireSpec(s)
	f, err := l.call(func(dst []byte, id uint32) []byte { return wire.AppendEstablish(dst, id, ws) })
	var we *wire.Error
	if errors.As(err, &we) && we.Code == wire.CodeInfeasible {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	rep, err := wire.DecodeChannelReply(f.Payload)
	return rep.ID, err == nil, err
}

func (l *srvLayer) release(id uint32) error {
	_, err := l.call(func(dst []byte, req uint32) []byte { return wire.AppendRelease(dst, req, id) })
	return err
}

func (l *srvLayer) stats() error {
	rec := httptest.NewRecorder()
	l.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET /v1/stats: %d", rec.Code)
	}
	return nil
}

func (l *srvLayer) close() {
	l.conn.Close()
	l.srv.Close()
	<-l.served
	_ = l.net.Close()
}

// ---- the replay ----

type event struct {
	at      time.Duration
	release bool
	arr     int // index into the stream
}

// replayEvents orders the establishes of stream and their releases by
// due time, as the open-loop run sends them when replies are prompt.
func replayEvents(stream []Arrival) []event {
	ev := make([]event, 0, 2*len(stream))
	for i, a := range stream {
		ev = append(ev, event{at: a.At, arr: i}, event{at: a.At + a.Hold, release: true, arr: i})
	}
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].at < ev[j].at })
	return ev
}

// layerRun is what replaying the stream through one layer measured.
type layerRun struct {
	verdicts []bool          // per arrival: accepted
	estNs    map[int]float64 // per arrival
	relNs    map[int]float64
	statsNs  []float64
}

// replay drives one layer through the preload and the events, calling
// mid after the last establish (before the remaining releases).
func replay(name string, l layer, w *Workload, stream []Arrival, spans *spanLog, mid func()) (*layerRun, error) {
	events := replayEvents(stream)
	if err := l.preload(w.Preload); err != nil {
		return nil, fmt.Errorf("%s: preload: %w", name, err)
	}
	lr := &layerRun{verdicts: make([]bool, len(stream)), estNs: map[int]float64{}, relNs: map[int]float64{}}
	ids := map[int]uint32{}
	lastEst := -1
	for i, e := range events {
		if !e.release {
			lastEst = i
		}
	}
	var err error
	for i, e := range events {
		if e.release {
			id, ok := ids[e.arr]
			if !ok {
				continue
			}
			lr.relNs[e.arr] = float64(spans.timed(name, "release", e.arr, func() { err = l.release(id) }))
		} else {
			var id uint32
			var ok bool
			lr.estNs[e.arr] = float64(spans.timed(name, "establish", e.arr, func() { id, ok, err = l.establish(stream[e.arr].Spec) }))
			if ok {
				ids[e.arr] = id
				lr.verdicts[e.arr] = true
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: event %d: %w", name, i, err)
		}
		if i%10 == 0 {
			lr.statsNs = append(lr.statsNs, float64(spans.timed(name, "stats", -1, func() { err = l.stats() })))
			if err != nil {
				return nil, fmt.Errorf("%s: stats: %w", name, err)
			}
		}
		if i == lastEst && mid != nil {
			mid()
		}
	}
	return lr, nil
}

func medianOf(m map[int]float64) float64 {
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	return percentile(xs, 50)
}

// selfNs is the median over requests of upper minus lower time.
func selfNs(upper, lower map[int]float64) float64 {
	var xs []float64
	for k, v := range upper {
		if u, ok := lower[k]; ok {
			xs = append(xs, v-u)
		}
	}
	return percentile(xs, 50)
}

// traced runs the per-layer measurement of one workload.
func traced(w *Workload, daemonBin, workdir string, seed int64) (result, error) {
	res := result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	spans := &spanLog{t0: time.Now()}

	// End to end through the daemon: the first churn stream, then the
	// sequential pass with client spans recorded.
	seg := w.Streams[0]
	e2e, err := tracedEndToEnd(w, seg, daemonBin, workdir, spans)
	if err != nil {
		return res, err
	}

	// In-process, sequentially, layer by layer.
	ctrl := newCtrlLayer(&w.Topo)
	var edfNs []float64
	var tasksMax int
	var checked0, hits0, reparts int
	lc, err := replay("ctrl", &countingCtrl{ctrlLayer: ctrl, reparts: &reparts, base: func() { checked0, hits0 = ctrl.counters() }}, w, seg, spans, func() {
		for _, ts := range ctrl.taskSets() {
			tasksMax = max(tasksMax, len(ts))
			edfNs = append(edfNs, timeEDF(ts))
		}
	})
	if err != nil {
		return res, err
	}
	checked1, hits1 := ctrl.counters()
	ops := float64(len(lc.estNs) + len(lc.relNs))

	rn, err := newNetwork(&w.Topo)
	if err != nil {
		return res, err
	}
	rl := &rtLayer{net: rn, handles: map[uint32]*rtether.Channel{}}
	lr, err := replay("rtether", rl, w, seg, spans, nil)
	var recoveryMs []float64
	if err == nil {
		recoveryMs, err = rtRecovery(w, rl, spans)
	}
	rl.close()
	if err != nil {
		return res, err
	}

	sl, err := newSrvLayer(&w.Topo)
	if err != nil {
		return res, err
	}
	ls, err := replay("server", sl, w, seg, spans, nil)
	sl.close()
	if err != nil {
		return res, err
	}

	// The three layers decide the same sequence.
	mismatch := 0
	accepted, rejected := 0, 0
	for i := range seg {
		if lc.verdicts[i] != lr.verdicts[i] || lr.verdicts[i] != ls.verdicts[i] {
			mismatch++
		}
		if lc.verdicts[i] {
			accepted++
		} else {
			rejected++
		}
	}
	encNs, decNs := wireCodecNs(seg)

	if err := spans.flush(filepath.Join(workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, seed))); err != nil {
		return res, err
	}
	fmt.Printf("traced %s: %d requests replayed per layer (%d accepted, %d rejected), %d verdict mismatches across layers, %d spans\n",
		w.Name, len(seg), accepted, rejected, mismatch, len(spans.spans))
	res.Attempted = e2e.attempted + 3*(len(seg)+len(lc.relNs)) + len(recoveryMs)
	res.Failed = e2e.failed + mismatch
	res.Correct = e2e.correct && mismatch == 0
	if mismatch > 0 {
		return res, fmt.Errorf("%d requests decided differently across layers", mismatch)
	}

	srvEst := medianOf(ls.estNs)
	put("wire.encode_ns", "ns", encNs)
	put("wire.decode_ns", "ns", decNs)
	put("server.establish_ns", "ns", srvEst)
	put("server.release_ns", "ns", medianOf(ls.relNs))
	put("server.stats_ns", "ns", percentile(ls.statsNs, 50))
	put("server.self_ns", "ns", selfNs(ls.estNs, lr.estNs))
	put("transport.rtt_ns", "ns", e2e.seqP50Ns-srvEst)
	put("server.establishes_per_flight", "req/flight", e2e.perFlight)
	put("rtether.establish_ns", "ns", medianOf(lr.estNs))
	put("rtether.release_ns", "ns", medianOf(lr.relNs))
	put("rtether.stats_ns", "ns", percentile(lr.statsNs, 50))
	put("rtether.overhead_ns", "ns", selfNs(lr.estNs, lc.estNs))
	put("rtether.recovery_ms", "ms", median(recoveryMs))
	put("ctrl.request_ns", "ns", medianOf(lc.estNs))
	put("ctrl.release_ns", "ns", medianOf(lc.relNs))
	put("admit.links_checked_per_op", "count/op", float64(checked1-checked0)/ops)
	put("admit.cache_hits_per_op", "count/op", float64(hits1-hits0)/ops)
	put("admit.repartitioned_per_op", "count/op", float64(reparts)/ops)
	put("edf.test_ns", "ns", percentile(edfNs, 50))
	put("edf.tasks_per_link_max", "count", float64(tasksMax))
	put("trace.overhead_ns", "ns", spanCostNs())
	return res, nil
}

// countingCtrl sums the controller's repartitioned channels per
// successful operation, and marks the counters' base after the preload.
type countingCtrl struct {
	*ctrlLayer
	reparts *int
	base    func()
}

func (c *countingCtrl) preload(specs []Spec) error {
	err := c.ctrlLayer.preload(specs)
	c.base()
	return err
}

func (c *countingCtrl) establish(s Spec) (uint32, bool, error) {
	id, ok, err := c.ctrlLayer.establish(s)
	if ok {
		*c.reparts += c.repartitioned()
	}
	return id, ok, err
}

func (c *countingCtrl) release(id uint32) error {
	err := c.ctrlLayer.release(id)
	if err == nil {
		*c.reparts += c.repartitioned()
	}
	return err
}

// timeEDF returns the time of one edf.Test on a task set, the median of
// several calls.
func timeEDF(ts []edf.Task) float64 {
	var xs []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		_ = edf.Test(ts, edf.Options{})
		xs = append(xs, float64(time.Since(t0)))
	}
	return median(xs)
}

// wireCodecNs times the binary codec on the stream's establishes: encode
// is request plus reply, decode the same two, per establish.
func wireCodecNs(seg []Arrival) (enc, dec float64) {
	const batch = 64
	reply := wire.ChannelReply{ID: 1 << 20, Budgets: []int64{100, 200, 100}, GuaranteedDelay: 400}
	var buf []byte
	var encs, decs []float64
	for lo := 0; lo+batch <= len(seg); lo += batch {
		t0 := time.Now()
		for i := lo; i < lo+batch; i++ {
			buf = wire.AppendEstablish(buf[:0], uint32(i), wireSpec(seg[i].Spec))
			buf = wire.AppendChannelReply(buf, uint32(i), reply)
		}
		encs = append(encs, float64(time.Since(t0))/batch)
		req := wire.AppendEstablish(nil, 1, wireSpec(seg[lo].Spec))[wire.FrameHeaderLen:]
		rep := wire.AppendChannelReply(nil, 1, reply)[wire.FrameHeaderLen:]
		t0 = time.Now()
		for i := lo; i < lo+batch; i++ {
			_, _ = wire.DecodeEstablish(req)
			_, _ = wire.DecodeChannelReply(rep)
		}
		decs = append(decs, float64(time.Since(t0))/batch)
	}
	return median(encs), median(decs)
}

// rtRecovery times rtether's own recovery on the replayed network: a
// trunk failure (SetLinkUp) on a fabric, a station's batch re-admission
// (EstablishAll) on a star.
func rtRecovery(w *Workload, l *rtLayer, spans *spanLog) ([]float64, error) {
	const passes = 9
	var out []float64
	if !w.Topo.Star() {
		for p := 0; p < passes; p++ {
			tr := w.FailTrunks[p%len(w.FailTrunks)]
			a, b := rtether.SwitchID(tr[0]), rtether.SwitchID(tr[1])
			var rep *rtether.FailoverReport
			var err error
			d := spans.timed("rtether", "fail", p, func() { rep, err = l.net.SetLinkUp(a, b, false) })
			if err == nil && rep.Count(rtether.Rerouted) != rep.Affected {
				err = fmt.Errorf("trunk %d-%d: %d of %d rerouted", a, b, rep.Count(rtether.Rerouted), rep.Affected)
			}
			if err == nil {
				_, err = l.net.SetLinkUp(a, b, true)
			}
			if err != nil {
				return nil, err
			}
			out = append(out, ms(d))
		}
		return out, nil
	}
	for p := 0; p < passes; p++ {
		block := w.Blocks[p%len(w.Blocks)]
		var ids []uint32
		var err error
		d := spans.timed("rtether", "establishAll", p, func() { ids, err = l.establishAll(block) })
		for _, id := range ids {
			if err == nil {
				err = l.release(id)
			}
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ms(d))
	}
	return out, nil
}

// e2eTrace is what the daemon half of the traced run measured.
type e2eTrace struct {
	seqP50Ns          float64 // sequential pass establish median
	perFlight         float64
	attempted, failed int
	correct           bool
}

// tracedEndToEnd drives one daemon with the churn stream, untraced, for
// the coalescer's flight counters, then runs the sequential pass on it
// with the client's spans recorded.
func tracedEndToEnd(w *Workload, seg []Arrival, daemonBin, workdir string, spans *spanLog) (e2eTrace, error) {
	var out e2eTrace
	scen, err := writeScenario(w, workdir)
	if err != nil {
		return out, err
	}
	defer os.Remove(scen)
	r := newRun(w)
	defer r.close()
	if _, err := r.boot(daemonBin, scen); err != nil {
		return out, err
	}
	est0, fl0, err := r.flightCounters()
	if err != nil {
		return out, err
	}
	ch, err := r.churn(seg, w.Segment)
	if err == nil {
		err = r.endPhase(ch)
	}
	if err != nil {
		return out, err
	}
	est1, fl1, err := r.flightCounters()
	if err != nil {
		return out, err
	}
	out.perFlight = float64(est1-est0) / float64(fl1-fl0)
	r.spans = spans
	err = r.sequential(seg, w.Seq)
	r.spans = nil
	out.seqP50Ns = median(r.seqEst) * float64(time.Millisecond)
	r.report(os.Stdout, ch)
	out.attempted, out.failed = r.totals()
	out.correct = err == nil && len(r.errs) == 0
	return out, err
}

// spanCostNs times what tracing adds to each reply, recording one client
// span: the median over batches of appends to a fresh log, per append.
// It is timed directly because the difference it makes to a round trip
// is far below how much round trips vary from run to run.
func spanCostNs() float64 {
	const batch = 1024
	var xs []float64
	for k := 0; k < 31; k++ {
		l := &spanLog{}
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			l.add("establish", i, 0, 0)
		}
		xs = append(xs, float64(time.Since(t0))/batch)
	}
	return median(xs)
}

// flightCounters scrapes the coalescer's establish and flight counters
// from the daemon's /metrics exposition.
func (r *run) flightCounters() (establishes, flights int64, err error) {
	resp, err := r.web.Get("http://" + r.d.httpAddr + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	found := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		var dst *int64
		switch f[0] {
		case "rtether_establishes_total":
			dst = &establishes
		case "rtether_flights_total":
			dst = &flights
		default:
			continue
		}
		v, perr := strconv.ParseFloat(f[1], 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("/metrics line %q: %w", sc.Text(), perr)
		}
		*dst = int64(v)
		found++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, errors.New("/metrics lacks rtether_establishes_total or rtether_flights_total")
	}
	return establishes, flights, nil
}
