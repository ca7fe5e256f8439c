package main

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"syscall"
	"time"

	"repro/rtether/wire"
)

// ---- the one pipelined binary connection ----

type reply struct {
	id      uint32
	typ     wire.MsgType
	payload []byte
	at      time.Time
	err     error
}

// binConn is the load process's single binary connection: any number of
// requests in flight, replies matched by request ID.
type binConn struct {
	c       net.Conn
	wbuf    []byte
	next    uint32
	replies chan reply
	quit    chan struct{}
	done    chan struct{}
}

func dialBin(addr string) (*binConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dialing binary listener: %w", err)
	}
	// The buffer absorbs replies that land while the generator is
	// sending; the reader blocks (and TCP pushes back) beyond it.
	b := &binConn{c: c, replies: make(chan reply, 1024), quit: make(chan struct{}), done: make(chan struct{})}
	go b.readLoop()
	return b, nil
}

func (b *binConn) readLoop() {
	defer close(b.done)
	br := bufio.NewReaderSize(b.c, 64<<10)
	var buf []byte
	for {
		f, nbuf, err := wire.ReadFrame(br, buf)
		buf = nbuf
		r := reply{at: time.Now(), err: err}
		if err == nil {
			r.id, r.typ, r.payload = f.ReqID, f.Type, append([]byte(nil), f.Payload...)
		}
		select {
		case b.replies <- r:
		case <-b.quit:
			return
		}
		if err != nil {
			return
		}
	}
}

// send writes one request frame and returns its request ID.
func (b *binConn) send(enc func(dst []byte, id uint32) []byte) (uint32, error) {
	b.next++
	b.wbuf = enc(b.wbuf[:0], b.next)
	if _, err := b.c.Write(b.wbuf); err != nil {
		return 0, fmt.Errorf("binary write: %w", err)
	}
	return b.next, nil
}

// recv waits for the next reply.
func (b *binConn) recv() (reply, error) {
	r := <-b.replies
	if r.err != nil {
		return r, fmt.Errorf("binary read: %w", r.err)
	}
	return r, nil
}

// call sends one request and waits for its reply; nothing else may be
// in flight.
func (b *binConn) call(enc func(dst []byte, id uint32) []byte) (reply, error) {
	id, err := b.send(enc)
	if err != nil {
		return reply{}, err
	}
	r, err := b.recv()
	if err == nil && r.id != id {
		err = fmt.Errorf("reply for request %d, want %d", r.id, id)
	}
	return r, err
}

func (b *binConn) close() {
	close(b.quit)
	b.c.Close()
	<-b.done
}

// ---- accounting ----

type opStats struct{ attempted, rejected, offRoute, failed int }

// run is one benchmark run against one daemon.
type run struct {
	w     *Workload
	d     *daemon
	bin   *binConn
	web   *http.Client
	chk   *checker
	ops   map[string]*opStats
	errs  []string
	spans *spanLog // nil when untraced

	preloadIDs []uint32
	stream     []Arrival // the churn stream being sent
	est, rel   []float64 // latency from due time, ms
	late       []float64 // generator lateness, ms
	query      []float64 // from send, ms
	queryLate  []float64 // monitor lateness, ms
	seqEst     []float64 // sequential pass, from send, ms
	seqRel     []float64
	seqQuery   []float64
	recovery   []float64
}

func (r *run) op(kind string) *opStats {
	s := r.ops[kind]
	if s == nil {
		s = &opStats{}
		r.ops[kind] = s
	}
	return s
}

// fail counts a failed operation and keeps the first few reasons.
func (r *run) fail(kind string, err error) {
	r.op(kind).failed++
	if len(r.errs) < 10 {
		r.errs = append(r.errs, kind+": "+err.Error())
	}
}

// newHTTPClient returns a client holding at most one connection to the
// daemon: the monitor's reads and the failure commands share it.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func (r *run) httpDo(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, "http://"+r.d.httpAddr+path, rd)
	if err != nil {
		return err
	}
	resp, err := r.web.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// ---- set-up ----

// preload admits the workload's static population with atomic
// establishAll batches and records it in the checker.
func (r *run) preload() error {
	const chunk = 1000
	for lo := 0; lo < len(r.w.Preload); lo += chunk {
		specs := r.w.Preload[lo:min(lo+chunk, len(r.w.Preload))]
		ids, err := r.establishAll(specs, "preload")
		if err != nil {
			return fmt.Errorf("preloading channels %d..%d: %w", lo, lo+len(specs)-1, err)
		}
		r.preloadIDs = append(r.preloadIDs, ids...)
	}
	return nil
}

func wireSpec(s Spec) wire.Spec { return wire.Spec{Src: s.Src, Dst: s.Dst, C: s.C, P: s.P, D: s.D} }

func fromWire(s wire.Spec) Spec {
	return Spec{Src: s.Src, Dst: s.Dst, C: s.C, P: s.P, D: s.D}
}

// establishAll admits specs as one atomic batch over the binary
// connection and checks every granted channel. Any rejection is a
// failure: batches are sized to fit.
func (r *run) establishAll(specs []Spec, kind string) ([]uint32, error) {
	ws := make([]wire.Spec, len(specs))
	for i, s := range specs {
		ws[i] = wireSpec(s)
	}
	r.op(kind).attempted++
	rep, err := r.bin.call(func(dst []byte, id uint32) []byte { return wire.AppendEstablishAll(dst, id, ws) })
	if err == nil && rep.typ == wire.MsgError {
		we, derr := wire.DecodeError(rep.payload)
		if derr != nil {
			err = derr
		} else {
			err = we
		}
	}
	var list wire.EstablishAllReply
	if err == nil {
		list, err = wire.DecodeChannelList(rep.payload)
	}
	if err == nil && len(list.Channels) != len(specs) {
		err = fmt.Errorf("%d channels granted for %d specs", len(list.Channels), len(specs))
	}
	ids := make([]uint32, len(specs))
	for i := 0; err == nil && i < len(specs); i++ {
		ids[i] = list.Channels[i].ID
		err = r.chk.admit(ids[i], specs[i], list.Channels[i].Budgets)
	}
	if err != nil {
		r.fail(kind, err)
		return nil, err
	}
	return ids, nil
}

// releaseAll releases ids pipelined and waits for every reply.
func (r *run) releaseAll(ids []uint32, kind string) error {
	want := map[uint32]uint32{}
	for _, ch := range ids {
		r.op(kind).attempted++
		req, err := r.bin.send(func(dst []byte, id uint32) []byte { return wire.AppendRelease(dst, id, ch) })
		if err != nil {
			r.fail(kind, err)
			return err
		}
		want[req] = ch
	}
	for len(want) > 0 {
		rep, err := r.bin.recv()
		if err != nil {
			r.fail(kind, err)
			return err
		}
		ch, ok := want[rep.id]
		if !ok {
			err = fmt.Errorf("unexpected reply %d", rep.id)
			r.fail(kind, err)
			return err
		}
		delete(want, rep.id)
		if err := r.checkReleased(rep, ch); err != nil {
			r.fail(kind, err)
		}
	}
	return nil
}

func (r *run) checkReleased(rep reply, ch uint32) error {
	if rep.typ != wire.MsgReleased {
		if rep.typ == wire.MsgError {
			if we, err := wire.DecodeError(rep.payload); err == nil {
				return fmt.Errorf("release %d: %w", ch, we)
			}
		}
		return fmt.Errorf("release %d: reply type %#x", ch, uint8(rep.typ))
	}
	return r.chk.release(ch)
}

// ---- phase one: open-loop churn ----

type pendingRelease struct {
	due time.Duration
	ch  uint32
	arr int
}

type releaseHeap []pendingRelease

func (h releaseHeap) Len() int           { return len(h) }
func (h releaseHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h releaseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *releaseHeap) Push(x any)        { *h = append(*h, x.(pendingRelease)) }
func (h *releaseHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type inflight struct {
	release bool
	arr     int
	ch      uint32
	due     time.Duration
}

// churnResult is what one open-loop churn phase measured.
type churnResult struct {
	cpu   time.Duration // daemon CPU over the phase
	ops   int           // operations completed in the phase
	flush []uint32      // channels whose release was due after the phase
}

// churn sends the stream open loop: each establish at its due time, each
// release Hold after its establish was due or as soon as the establish
// is answered, whichever is later. Latency counts from the due time.
// Releases due after end are returned instead of sent. The monitor polls
// GET /v1/stats beside it.
func (r *run) churn(stream []Arrival, end time.Duration) (churnResult, error) {
	var res churnResult
	r.stream = stream
	sends0 := len(r.late)
	cpu0, err := r.d.cpu()
	if err != nil {
		return res, err
	}
	start := time.Now()
	stop := make(chan struct{})
	mon := make(chan monitorResult, 1)
	go func() { mon <- r.monitor(start, stop) }()

	var rh releaseHeap
	// The loop runs in a closure so that the monitor is stopped on every
	// path out of it.
	err = func() error {
		pending := map[uint32]inflight{}
		next := 0
		timer := time.NewTimer(time.Hour)
		defer timer.Stop()
		for {
			// Book every reply that has landed before choosing what is due.
			for drained := false; !drained; {
				select {
				case rep := <-r.bin.replies:
					if rep.err != nil {
						return fmt.Errorf("binary read: %w", rep.err)
					}
					r.handle(rep, pending, &rh, start)
				default:
					drained = true
				}
			}
			due, isRel := time.Duration(-1), false
			if next < len(stream) {
				due = stream[next].At
			}
			if rh.Len() > 0 && (due < 0 || rh[0].due < due) {
				due, isRel = rh[0].due, true
			}
			if due < 0 || due >= end {
				if len(pending) == 0 {
					return nil
				}
				rep, err := r.bin.recv()
				if err != nil {
					return err
				}
				r.handle(rep, pending, &rh, start)
				continue
			}
			if wait := due - time.Since(start); wait > 0 {
				if wait <= nearDue {
					// Short steps: a reply landing meanwhile can make a
					// release due before the next establish.
					sleepUntil(time.Now().Add(min(wait, 200*time.Microsecond)))
					continue
				}
				timer.Reset(wait - nearDue)
				select {
				case rep := <-r.bin.replies:
					if !timer.Stop() {
						<-timer.C
					}
					if rep.err != nil {
						return fmt.Errorf("binary read: %w", rep.err)
					}
					r.handle(rep, pending, &rh, start)
				case <-timer.C:
				}
				continue
			}
			sent := time.Since(start)
			r.late = append(r.late, ms(sent-due))
			if isRel {
				pr := heap.Pop(&rh).(pendingRelease)
				r.op("release").attempted++
				id, err := r.bin.send(func(dst []byte, id uint32) []byte { return wire.AppendRelease(dst, id, pr.ch) })
				if err != nil {
					return err
				}
				pending[id] = inflight{release: true, arr: pr.arr, ch: pr.ch, due: pr.due}
			} else {
				a := stream[next]
				next++
				r.op("establish").attempted++
				ws := wireSpec(a.Spec)
				id, err := r.bin.send(func(dst []byte, id uint32) []byte { return wire.AppendEstablish(dst, id, ws) })
				if err != nil {
					return err
				}
				pending[id] = inflight{arr: next - 1, due: a.At}
			}
		}
	}()
	close(stop)
	m := <-mon
	if err != nil {
		return res, err
	}
	q := r.op("query")
	q.attempted += m.attempted
	if m.failed > 0 {
		q.failed += m.failed - 1
		r.fail("query", m.err)
	}
	r.query = append(r.query, m.lat...)
	r.queryLate = append(r.queryLate, m.late...)
	cpu1, err := r.d.cpu()
	if err != nil {
		return res, err
	}
	res.cpu = cpu1 - cpu0
	res.ops = len(m.lat) + len(r.late) - sends0
	for rh.Len() > 0 {
		res.flush = append(res.flush, heap.Pop(&rh).(pendingRelease).ch)
	}
	return res, nil
}

// handle books one churn reply.
func (r *run) handle(rep reply, pending map[uint32]inflight, rh *releaseHeap, start time.Time) {
	f, ok := pending[rep.id]
	if !ok {
		r.fail("establish", fmt.Errorf("reply for unknown request %d", rep.id))
		return
	}
	delete(pending, rep.id)
	lat := rep.at.Sub(start) - f.due
	kind := "establish"
	if f.release {
		kind = "release"
	}
	r.spans.add(kind, f.arr, f.due, rep.at.Sub(start))
	if f.release {
		r.rel = append(r.rel, ms(lat))
		if err := r.checkReleased(rep, f.ch); err != nil {
			r.fail(kind, err)
		}
		return
	}
	r.est = append(r.est, ms(lat))
	a := r.stream[f.arr]
	if id, ok := r.verdict(kind, rep, a.Spec); ok {
		due := a.At + a.Hold
		if now := rep.at.Sub(start); now > due {
			due = now
		}
		heap.Push(rh, pendingRelease{due: due, ch: id, arr: f.arr})
	}
}

// verdict checks and books the reply to an establish of s. It returns
// the granted channel's ID and true if the channel was admitted.
func (r *run) verdict(kind string, rep reply, s Spec) (uint32, bool) {
	switch rep.typ {
	case wire.MsgChannel:
		cr, err := wire.DecodeChannelReply(rep.payload)
		if err == nil {
			err = r.chk.admit(cr.ID, s, cr.Budgets)
		}
		if err != nil {
			r.fail(kind, err)
			return 0, false
		}
		return cr.ID, true
	case wire.MsgError:
		we, err := wire.DecodeError(rep.payload)
		if err != nil {
			r.fail(kind, err)
			return 0, false
		}
		if we.Code != wire.CodeInfeasible || we.Admission == nil {
			r.fail(kind, we)
			return 0, false
		}
		r.op(kind).rejected++
		off, err := r.chk.checkRejection(s, we.Admission.Link, we.Admission.Hop)
		if err != nil {
			r.fail(kind, err)
		} else if off {
			r.op(kind).offRoute++
		}
	default:
		r.fail(kind, fmt.Errorf("reply type %#x", uint8(rep.typ)))
	}
	return 0, false
}

type monitorResult struct {
	attempted, failed int
	err               error // first failure
	lat, late         []float64
}

// monitor polls GET /v1/stats at QueryHz until stop. It owns its result
// until it returns. It waits on Go timers only: a second thread parked in
// nanosleep would leave the process no free scheduler slot to notice the
// binary connection's replies (see nearDue). A Go timer fires up to a
// millisecond late, so each poll is timed from when it was sent, and the
// lateness is reported apart.
func (r *run) monitor(start time.Time, stop <-chan struct{}) monitorResult {
	var res monitorResult
	period := time.Duration(float64(time.Second) / r.w.QueryHz)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for k := 0; ; k++ {
		due := time.Duration(k) * period
		timer.Reset(max(0, due-time.Since(start)))
		select {
		case <-stop:
			return res
		case <-timer.C:
		}
		var st wire.StatsReply
		res.attempted++
		sent := time.Now()
		res.late = append(res.late, ms(sent.Sub(start)-due))
		err := r.httpDo(http.MethodGet, "/v1/stats", nil, &st)
		if err == nil && st.Server.Channels < 0 {
			err = fmt.Errorf("negative channel count %d", st.Server.Channels)
		}
		if err != nil {
			res.failed++
			if res.err == nil {
				res.err = err
			}
			continue
		}
		res.lat = append(res.lat, ms(time.Since(sent)))
	}
}

// nearDue is how close to a due time the generator switches from Go
// timers to sleepUntil. Go timers wake sleepers through the network
// poller, whose timeout has millisecond resolution, so alone they send
// up to a millisecond late. A thread in nanosleep keeps its scheduler
// slot (P), so only the generator ever sleeps that way, and only for this
// last stretch: the other slot stays free to poll the network and run
// the reply reader. With both slots parked in nanosleep, a reply waits
// for the runtime's monitor thread, which can take up to 10 ms.
const nearDue = 1500 * time.Microsecond

// sleepUntil blocks the calling thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-checks
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- checks against the daemon's own listing ----

func (r *run) snapshot() ([]listed, error) {
	var rep wire.ChannelsReply
	if err := r.httpDo(http.MethodGet, "/v1/channels", nil, &rep); err != nil {
		return nil, err
	}
	out := make([]listed, len(rep.Channels))
	for i, c := range rep.Channels {
		out[i] = listed{ID: c.ID, Spec: fromWire(c.Spec), Budgets: c.Budgets}
	}
	return out, nil
}

// checkState checks the daemon's whole admitted set and its counters
// against the model.
func (r *run) checkState(when string) error {
	chs, err := r.snapshot()
	if err == nil {
		_, err = r.chk.checkSnapshot(chs)
	}
	var st wire.StatsReply
	if err == nil {
		err = r.httpDo(http.MethodGet, "/v1/stats", nil, &st)
	}
	if err == nil && int(st.Server.Channels) != len(r.chk.live) {
		err = fmt.Errorf("stats report %d channels, %d are live", st.Server.Channels, len(r.chk.live))
	}
	if err == nil && st.Admission.Accepted-st.Admission.Released != len(r.chk.live) {
		err = fmt.Errorf("stats report %d accepted minus %d released, %d are live",
			st.Admission.Accepted, st.Admission.Released, len(r.chk.live))
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", when, err)
		r.fail("check", err)
	}
	return err
}

// ---- phase two: the sequential pass ----

// sequential sends the stream's establishes one at a time for length,
// from its start and round again: each waits for its verdict, a GET
// /v1/stats follows, and an admitted channel is released at once. With
// one request in flight and both processes kept busy, each latency is
// the daemon's service time plus one loopback round trip, timed from
// the send.
func (r *run) sequential(stream []Arrival, length time.Duration) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < length; i++ {
		a := stream[i%len(stream)]
		ws := wireSpec(a.Spec)
		r.op("seq_establish").attempted++
		t0 := time.Now()
		rep, err := r.bin.call(func(dst []byte, id uint32) []byte { return wire.AppendEstablish(dst, id, ws) })
		if err != nil {
			r.fail("seq_establish", err)
			return err
		}
		r.seqEst = append(r.seqEst, ms(rep.at.Sub(t0)))
		r.spans.add("seq_establish", i, t0.Sub(start), rep.at.Sub(start))
		id, ok := r.verdict("seq_establish", rep, a.Spec)

		var st wire.StatsReply
		r.op("seq_query").attempted++
		t0 = time.Now()
		if err := r.httpDo(http.MethodGet, "/v1/stats", nil, &st); err != nil {
			r.fail("seq_query", err)
			return err
		}
		r.seqQuery = append(r.seqQuery, ms(time.Since(t0)))

		if !ok {
			continue
		}
		r.op("seq_release").attempted++
		t0 = time.Now()
		rep, err = r.bin.call(func(dst []byte, req uint32) []byte { return wire.AppendRelease(dst, req, id) })
		if err == nil {
			r.seqRel = append(r.seqRel, ms(rep.at.Sub(t0)))
			err = r.checkReleased(rep, id)
		}
		if err != nil {
			r.fail("seq_release", err)
			return err
		}
	}
	return nil
}

// ---- phase two: recovery ----

// recoverStar re-admits one restarting station's channels per pass: the
// block is released (when held) and re-requested as one atomic
// establishAll, which is timed.
func (r *run) recoverStar(length time.Duration) error {
	held := make([][]uint32, len(r.w.Blocks))
	if r.w.BlockHeld {
		off := 0
		for i, b := range r.w.Blocks {
			held[i] = r.preloadIDs[off : off+len(b)]
			off += len(b)
		}
	}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < length; pass++ {
		k := pass % len(r.w.Blocks)
		if held[k] != nil {
			if err := r.releaseAll(held[k], "release_block"); err != nil {
				return err
			}
			held[k] = nil
		}
		t0 := time.Now()
		ids, err := r.establishAll(r.w.Blocks[k], "recovery")
		if err != nil {
			return err
		}
		r.recovery = append(r.recovery, ms(time.Since(t0)))
		if r.w.BlockHeld {
			held[k] = ids
		} else if err := r.releaseAll(ids, "release_block"); err != nil {
			return err
		}
	}
	return nil
}

// recoverRing fails and repairs the workload's trunks in turn. Every
// failure must re-route exactly the channels crossing the trunk, all of
// them onto the surviving shortest route; every repair must move none.
func (r *run) recoverRing(length time.Duration) error {
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < length; pass++ {
		tr := r.w.FailTrunks[pass%len(r.w.FailTrunks)]
		want := r.chk.onTrunk(tr[0], tr[1])
		var rep wire.FailReply
		r.op("recovery").attempted++
		t0 := time.Now()
		err := r.httpDo(http.MethodPost, "/v1/fail", wire.FailRequest{Kind: "link", A: tr[0], B: tr[1], Up: false}, &rep)
		lat := time.Since(t0)
		if err == nil {
			err = checkFailReply(rep, want)
		}
		if err == nil {
			err = r.chk.setTrunk(tr[0], tr[1], false, want)
		}
		if err != nil {
			r.fail("recovery", fmt.Errorf("failing trunk %d-%d: %w", tr[0], tr[1], err))
			return err
		}
		r.recovery = append(r.recovery, ms(lat))
		// The first failure of each trunk gets the full feasibility
		// check; every pass checks the re-routed budgets.
		if pass < len(r.w.FailTrunks) {
			if err := r.checkState(fmt.Sprintf("after trunk %d-%d failed", tr[0], tr[1])); err != nil {
				return err
			}
		} else if err := r.checkRerouted(want); err != nil {
			return err
		}
		r.op("repair").attempted++
		rep = wire.FailReply{}
		err = r.httpDo(http.MethodPost, "/v1/fail", wire.FailRequest{Kind: "link", A: tr[0], B: tr[1], Up: true}, &rep)
		if err == nil && (rep.Affected != 0 || len(rep.Outcomes) != 0) {
			err = fmt.Errorf("repair of trunk %d-%d reports %d affected", tr[0], tr[1], rep.Affected)
		}
		if err == nil {
			err = r.chk.setTrunk(tr[0], tr[1], true, nil)
		}
		if err != nil {
			r.fail("repair", err)
			return err
		}
	}
	return nil
}

func checkFailReply(rep wire.FailReply, want map[uint32]bool) error {
	if rep.Affected != len(want) || len(rep.Outcomes) != len(want) {
		return fmt.Errorf("%d affected with %d outcomes, %d channels cross the trunk", rep.Affected, len(rep.Outcomes), len(want))
	}
	for _, o := range rep.Outcomes {
		if !want[o.ID] {
			return fmt.Errorf("channel %d reported affected but does not cross the trunk", o.ID)
		}
		if o.Outcome != "rerouted" {
			return fmt.Errorf("channel %d %s, want rerouted", o.ID, o.Outcome)
		}
	}
	return nil
}

// checkRerouted checks the budgets of re-routed channels against their
// new routes.
func (r *run) checkRerouted(ids map[uint32]bool) error {
	chs, err := r.snapshot()
	for i := 0; err == nil && i < len(chs); i++ {
		c := chs[i]
		if ids[c.ID] {
			t := r.chk.live[c.ID]
			if t == nil {
				err = fmt.Errorf("re-routed channel %d is not live", c.ID)
			} else {
				err = checkBudgets(t.spec, t.route, c.Budgets)
			}
		}
	}
	if err != nil {
		r.fail("check", err)
	}
	return err
}

// ---- reference: closed loop ----

// closedLoop replays the stream's establishes and releases in due-time
// order with no schedule: `window` requests stay in flight, each reply
// letting the next one go. It returns the completed operations per
// second, a reference for how far below saturation the open-loop rates
// sit.
func (r *run) closedLoop(stream []Arrival, window int) (float64, int, error) {
	r.stream = stream
	events := replayEvents(stream)
	var rh releaseHeap
	pending := map[uint32]inflight{}
	accepted := map[int]uint32{}
	answered := map[int]bool{}
	next, done := 0, 0
	start := time.Now()
	for next < len(events) || len(pending) > 0 {
		for len(pending) < window && next < len(events) {
			e := events[next]
			if !e.release {
				ws := wireSpec(stream[e.arr].Spec)
				id, err := r.bin.send(func(dst []byte, id uint32) []byte { return wire.AppendEstablish(dst, id, ws) })
				if err != nil {
					return 0, done, err
				}
				r.op("establish").attempted++
				pending[id] = inflight{arr: e.arr}
			} else if ch, ok := accepted[e.arr]; ok {
				id, err := r.bin.send(func(dst []byte, id uint32) []byte { return wire.AppendRelease(dst, id, ch) })
				if err != nil {
					return 0, done, err
				}
				r.op("release").attempted++
				pending[id] = inflight{release: true, arr: e.arr, ch: ch}
			} else if !answered[e.arr] {
				break // its establish is still in flight
			}
			next++
		}
		rep, err := r.bin.recv()
		if err != nil {
			return 0, done, err
		}
		if f, ok := pending[rep.id]; ok && !f.release {
			answered[f.arr] = true
		}
		r.handle(rep, pending, &rh, start)
		for rh.Len() > 0 {
			pr := heap.Pop(&rh).(pendingRelease)
			accepted[pr.arr] = pr.ch
		}
		done++
	}
	return float64(done) / time.Since(start).Seconds(), done, nil
}
