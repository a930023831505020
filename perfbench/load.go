package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opKind is one kind of client operation.
type opKind uint8

const (
	opCore opKind = iota
	opKCore
	opDegeneracy
	opUpdate // small ?wait=1 update batch (read-mix trickle)
)

// target executes client operations. Each worker owns one target, and
// an HTTP target owns exactly one connection, so the worker count is
// the connection count.
type target interface {
	read(kind opKind, arg uint32) error
	update(ups []update, wait bool) error
}

// httpTarget talks to a kcored (or the traced in-process server) over
// one keep-alive loopback connection.
type httpTarget struct {
	c   *http.Client
	url string
	buf bytes.Buffer
	// reqID numbers requests so the traced server can pair its spans
	// with the client's timings; nil when untraced.
	reqID *atomic.Uint64
	// onDone, when set, receives each request's id and client-side
	// duration (traced runs).
	onDone func(id uint64, d time.Duration)
}

func newHTTPTarget(url string) *httpTarget {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpTarget{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, url: url}
}

func (t *httpTarget) close() { t.c.CloseIdleConnections() }

func (t *httpTarget) do(req *http.Request, want int, into any) error {
	var id uint64
	if t.reqID != nil {
		id = t.reqID.Add(1)
		req.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := t.c.Do(req)
	if err != nil {
		return err
	}
	t.buf.Reset()
	_, err = io.Copy(&t.buf, resp.Body)
	resp.Body.Close()
	if t.onDone != nil {
		t.onDone(id, time.Since(start))
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(t.buf.Bytes()))
	}
	if into != nil {
		return json.Unmarshal(t.buf.Bytes(), into)
	}
	return nil
}

func (t *httpTarget) read(kind opKind, arg uint32) error {
	var path string
	switch kind {
	case opCore:
		path = "/core?v=" + strconv.FormatUint(uint64(arg), 10)
	case opKCore:
		path = "/kcore?limit=100&k=" + strconv.FormatUint(uint64(arg), 10)
	default:
		path = "/degeneracy"
	}
	req, err := http.NewRequest(http.MethodGet, t.url+path, nil)
	if err != nil {
		return err
	}
	if kind == opCore {
		var ans struct {
			Node uint32 `json:"node"`
		}
		if err := t.do(req, http.StatusOK, &ans); err != nil {
			return err
		}
		if ans.Node != arg {
			return fmt.Errorf("/core answered node %d for %d", ans.Node, arg)
		}
		return nil
	}
	return t.do(req, http.StatusOK, nil)
}

type updateBody struct {
	Updates []updateJSON `json:"updates"`
}

type updateJSON struct {
	Op string `json:"op"`
	U  uint32 `json:"u"`
	V  uint32 `json:"v"`
}

func (t *httpTarget) update(ups []update, wait bool) error {
	body := updateBody{Updates: make([]updateJSON, len(ups))}
	for i, u := range ups {
		op := "insert"
		if u.del {
			op = "delete"
		}
		body.Updates[i] = updateJSON{op, u.u, u.v}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	path, want := "/update", http.StatusAccepted
	if wait {
		path, want = "/update?wait=1", http.StatusOK
	}
	req, err := http.NewRequest(http.MethodPost, t.url+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return t.do(req, want, nil)
}

// mix chooses the operation of request i of an open-loop schedule:
// mostly point lookups, some k-core listings and profiles, and, when
// trickle is set, every 100th request an update batch — a fixed share,
// so the trickle's rate and sample count do not vary from run to run.
type mix struct {
	seed    int64
	nodes   uint32
	kmax    uint32
	trickle bool
}

func (m mix) op(i int64) (opKind, uint32) {
	x := splitmix(uint64(m.seed)*0x9e3779b97f4a7c15 + uint64(i))
	y := splitmix(x)
	if m.trickle && i%100 == 0 {
		return opUpdate, 0
	}
	switch p := x % 100; {
	case p < 3:
		return opKCore, 1 + uint32(y%uint64(m.kmax))
	case p < 5:
		return opDegeneracy, 0
	default:
		return opCore, uint32(y % uint64(m.nodes))
	}
}

// splitmix is the SplitMix64 finaliser: a cheap, well-mixed hash that
// makes request i's choice independent of which worker sends it.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// trickleBatch is the size of a read-mix ?wait=1 trickle batch.
const trickleBatch = 16

// rung is the outcome of one fixed-rate open-loop step.
type rung struct {
	Rate     float64 `json:"rate"`
	Sent     int     `json:"sent"`
	Achieved float64 `json:"achieved_rps"`
	P50      float64 `json:"p50_ms"`
	P99      float64 `json:"p99_ms"`
	TailP50  float64 `json:"tail_p50_ms"`
	Goodput  float64 `json:"goodput_rps"` // reads per second within the limit
	LateP99  float64 `json:"generator_late_p99_ms"`
	Pass     bool    `json:"meets_limit"`
	// CPUUs is the system process's CPU time during the rung, when the
	// ladder was given a CPU reader.
	CPUUs      float64 `json:"cpu_us,omitempty"`
	start, end time.Time
	lat        []float64 // read latencies, ms from due time
	upd        []float64 // trickle update round trips, ms from send
}

// openLoop sends requests at a fixed rate for dur across the workers. Each
// request is timed from when it was due, so a stall also charges the
// requests queued behind it. A worker that is busy when a request falls
// due sends it late; the generator's own lateness (a free worker waking
// after the due time) is reported apart.
func openLoop(workers []target, rate float64, dur time.Duration, m mix, base int64, updates func(n int) []update, limitMs float64) (rung, int64, int64) {
	n := int64(rate * dur.Seconds())
	// Indexed by due order; each worker writes only the slots it took.
	lat := make([]float64, n)
	late := make([]float64, n)
	upd := make([]float64, n)
	for i := range lat {
		lat[i], late[i], upd[i] = -1, -1, -1
	}
	var (
		next     atomic.Int64
		attempts atomic.Int64
		failed   atomic.Int64
		wg       sync.WaitGroup
	)
	start := time.Now()
	// A rung that falls far behind stops sending: the unsent requests
	// fail it, and a saturated rung cannot stretch the run.
	deadline := start.Add(dur * 3 / 2)
	for _, w := range workers {
		wg.Add(1)
		go func(w target) {
			defer wg.Done()
			freeAt := time.Now()
			for {
				i := next.Add(1) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * 1e9))
				sleepUntil(due)
				sent := time.Now()
				if sent.After(deadline) {
					return
				}
				if freeAt.Before(due) {
					late[i] = ms(sent.Sub(due))
				}
				kind, arg := m.op(base + i)
				var err error
				if kind == opUpdate {
					err = w.update(updates(trickleBatch), true)
				} else {
					err = w.read(kind, arg)
				}
				freeAt = time.Now()
				attempts.Add(1)
				if err != nil {
					failed.Add(1)
					logf("request failed: %v", err)
					continue
				}
				if kind == opUpdate {
					upd[i] = ms(freeAt.Sub(sent))
				} else {
					lat[i] = ms(freeAt.Sub(due))
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	keep := func(xs []float64) []float64 {
		out := xs[:0:0]
		for _, x := range xs {
			if x >= 0 {
				out = append(out, x)
			}
		}
		return out
	}
	reads := keep(lat)
	r := rung{Rate: rate, Sent: int(n), Achieved: float64(len(reads)) / elapsed, lat: reads, upd: keep(upd)}
	// The tail is the last tenth of requests by due order; a growing
	// backlog shows as its median drifting far past the rung's.
	r.TailP50 = median(reads[len(reads)*9/10:])
	// No free worker ever waited for a due time on a saturated rung.
	if r.LateP99 = percentile(keep(late), 0.99); math.IsNaN(r.LateP99) {
		r.LateP99 = 0
	}
	r.P50, r.P99 = windowed(reads)
	good := 0
	for _, l := range reads {
		if l <= limitMs {
			good++
		}
	}
	r.Goodput = float64(good) / elapsed
	// A backlog that keeps growing leaves requests unsent at the
	// deadline or pushes p99 past the limit; a stall that the rung
	// recovers from does neither.
	r.Pass = failed.Load() == 0 && attempts.Load() == n && r.P99 <= limitMs
	return r, attempts.Load(), failed.Load()
}

// rungWindows is how many consecutive windows a rung's latencies are
// split into; a rung reports the median of the windows' percentiles, so
// one stalled second on a shared machine moves it by one window's worth
// instead of dominating the tail.
const rungWindows = 5

// windowed returns the median over rungWindows consecutive windows (in
// due order) of each window's p50 and p99.
func windowed(xs []float64) (p50, p99 float64) {
	var a, b []float64
	for w := 0; w < rungWindows; w++ {
		win := append([]float64(nil), xs[w*len(xs)/rungWindows:(w+1)*len(xs)/rungWindows]...)
		if len(win) == 0 {
			continue
		}
		a = append(a, percentile(win, 0.50))
		b = append(b, percentile(win, 0.99))
	}
	return median(a), median(b)
}

// ladder runs the open-loop rungs back to back within total: the first
// rung, at which read latency is reported, takes half of it so its p99
// rests on enough samples, and the others share the rest.
func ladder(workers []target, rates []float64, total time.Duration, m mix, updates func(n int) []update, limitMs float64, cpu func() float64) (rungs []rung, attempted, failed int64) {
	var base int64
	for i, rate := range rates {
		dur := total / 2
		if i > 0 {
			dur = total / 2 / time.Duration(len(rates)-1)
		}
		var cpu0 float64
		if cpu != nil {
			cpu0 = cpu()
		}
		start := time.Now()
		r, a, f := openLoop(workers, rate, dur, m, base, updates, limitMs)
		r.start, r.end = start, time.Now()
		if cpu != nil {
			r.CPUUs = cpu() - cpu0
		}
		base += int64(r.Sent)
		attempted += a
		failed += f
		rungs = append(rungs, r)
		logf("rung %.0f/s: achieved %.0f/s p50 %.3fms p99 %.3fms tail %.3fms generator late p99 %.3fms meets limit %v",
			r.Rate, r.Achieved, r.P50, r.P99, r.TailP50, r.LateP99, r.Pass)
	}
	return rungs, attempted, failed
}

// addReadMetrics reports read_max_rps: the achieved rate of the highest
// rung that met the limit, or, when none did, the best goodput. Read
// latency at the first rung goes to the detail line: on a shared 2-CPU
// machine its run-to-run spread is wider than any bound worth gating.
func addReadMetrics(res *result, rungs []rung) {
	maxRPS, good := 0.0, 0.0
	for _, r := range rungs {
		if r.Pass {
			maxRPS = max(maxRPS, r.Achieved)
		}
		good = max(good, r.Goodput)
	}
	if maxRPS == 0 {
		maxRPS = good
	}
	res.Metrics["read_max_rps"] = metric{maxRPS, "1/s"}
	res.detail["read_p50_ms"] = rungs[0].P50
	res.detail["read_p99_ms"] = rungs[0].P99
	res.detail["read_samples"] = len(rungs[0].lat)
	res.detail["rungs"] = rungs
}

// sleepUntil blocks until t. The runtime's timers wake up to a
// millisecond late on an idle process, which would dominate sub-ms
// latencies measured from the due time; nanosleep overshoots by about
// the kernel's 50µs timer slack, which is subtracted in advance.
func sleepUntil(t time.Time) {
	const slack = 50 * time.Microsecond
	if d := time.Until(t) - slack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only sends early by < slack
	}
}

// writerLoop is the closed-loop writer: ?wait=1 batches back to back
// until the deadline. It returns each acknowledged batch's round trip in
// ms and when it was acknowledged.
func writerLoop(t target, p *pool, batch int, until time.Time) (lat []float64, ackAt []time.Time, attempted, failed int64) {
	for time.Now().Before(until) {
		ups := p.next(batch)
		start := time.Now()
		err := t.update(ups, true)
		attempted++
		if err != nil {
			failed++
			logf("update batch failed: %v", err)
			continue
		}
		lat = append(lat, ms(time.Since(start)))
		ackAt = append(ackAt, time.Now())
	}
	return lat, ackAt, attempted, failed
}
