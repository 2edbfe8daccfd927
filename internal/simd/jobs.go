package simd

// Job lifecycle: a submitted job runs asynchronously on the shared
// runner pool, publishing progress snapshots to its event history and
// to any live SSE subscribers, and lands in a terminal done/failed
// state with the result (or error) attached. Everything here is the
// in-memory model; the HTTP surface lives in server.go and sse.go.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"omxsim/cluster"
	"omxsim/figures"
	"omxsim/imb"
	"omxsim/internal/cpu"
	"omxsim/metrics"
	"omxsim/runner"
)

// Job states.
const (
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobEvent is one progress or terminal event of a job, as streamed
// over SSE and kept in the job's replayable history. Seq increases
// strictly per job, so a subscriber can verify monotonic delivery.
type JobEvent struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "progress", "done" or "failed"
	// Done/Total/Cached/Errs mirror runner.Progress.
	Done   int `json:"done"`
	Total  int `json:"total"`
	Cached int `json:"cached"`
	Errs   int `json:"errs"`
	// ElapsedMs is wall time since the job's sweep started.
	ElapsedMs int64 `json:"elapsedMs"`
	// ETAMs estimates the remaining time; meaningful only when
	// ETAKnown (false while every completion was a cache hit).
	ETAMs    int64  `json:"etaMs"`
	ETAKnown bool   `json:"etaKnown"`
	Label    string `json:"label,omitempty"`
	Error    string `json:"error,omitempty"`
}

// HostCPU is one host's CPU ledger snapshot after a sweep.
type HostCPU struct {
	Host  string    `json:"host"`
	Stats cpu.Stats `json:"stats"`
}

// PointResult is one stack's measurement within a sweep job.
type PointResult struct {
	Stack StackSpec `json:"stack"`
	// Label is the runner job label ("sweep/Allreduce/Open-MX...").
	Label string `json:"label"`
	// Cached reports whether the point came from the result cache.
	Cached  bool             `json:"cached"`
	Results []imb.Result     `json:"results"`
	Net     cluster.NetStats `json:"net"`
	CPU     []HostCPU        `json:"cpu"`
}

// JobResult is a finished job's payload: a table plus per-stack
// points for sweeps, rendered text for figure jobs. Trace is the
// job's Chrome trace_event document when the job produced one (the
// timeline figure); it is served by the /trace endpoint, not embedded
// in the /result JSON.
type JobResult struct {
	Table  *metrics.Table `json:"table,omitempty"`
	Points []PointResult  `json:"points,omitempty"`
	Figure string         `json:"figure,omitempty"`
	Trace  []byte         `json:"-"`
}

// jobState is one job's record: immutable identity plus a mutex-held
// lifecycle (state, event history, live subscribers, result).
type jobState struct {
	ID      string
	Tenant  string
	Spec    JobSpec
	Created time.Time

	mu       sync.Mutex
	state    string
	errMsg   string
	seq      int
	events   []JobEvent
	subs     map[chan JobEvent]struct{}
	result   *JobResult
	finished time.Time
}

func newJobState(id, tenant string, spec JobSpec) *jobState {
	return &jobState{
		ID: id, Tenant: tenant, Spec: spec, Created: time.Now(),
		state: StateRunning,
		subs:  make(map[chan JobEvent]struct{}),
	}
}

// publish appends a progress event to the history and offers it to
// every live subscriber. A subscriber whose buffer is full misses the
// event (progress is advisory; seq numbers expose the gap).
func (j *jobState) publish(ev JobEvent) {
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// finish moves the job to its terminal state, appends the terminal
// event, and closes every subscriber channel.
func (j *jobState) finish(res *JobResult, err error) {
	j.mu.Lock()
	term := JobEvent{Type: StateDone, ETAKnown: true}
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
		term.Type = StateFailed
		term.Error = j.errMsg
	} else {
		j.state = StateDone
		j.result = res
	}
	j.finished = time.Now()
	if n := len(j.events); n > 0 {
		last := j.events[n-1]
		term.Done, term.Total = last.Done, last.Total
		term.Cached, term.Errs = last.Cached, last.Errs
		term.ElapsedMs = last.ElapsedMs
	}
	j.seq++
	term.Seq = j.seq
	j.events = append(j.events, term)
	for ch := range j.subs {
		select {
		case ch <- term:
		default:
		}
		close(ch)
	}
	j.subs = nil
	j.mu.Unlock()
}

// subscribe returns the event history so far and, if the job is still
// running, a live channel that finish() will close. Copying the
// history and registering the channel happen under one lock, so the
// replay+channel sequence has no gap and no duplicate.
func (j *jobState) subscribe() (replay []JobEvent, ch chan JobEvent, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	replay = append([]JobEvent(nil), j.events...)
	if j.state != StateRunning {
		return replay, nil, func() {}
	}
	ch = make(chan JobEvent, 1024)
	j.subs[ch] = struct{}{}
	return replay, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// lastEvent returns the most recent event, if any.
func (j *jobState) lastEvent() (JobEvent, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.events) == 0 {
		return JobEvent{}, false
	}
	return j.events[len(j.events)-1], true
}

// JobStatus is the job's JSON view.
type JobStatus struct {
	ID       string     `json:"id"`
	Tenant   string     `json:"tenant"`
	State    string     `json:"state"`
	Spec     JobSpec    `json:"spec"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Finished *time.Time `json:"finished,omitempty"`
	// Progress is the latest event, when any has been published.
	Progress *JobEvent `json:"progress,omitempty"`
}

func (j *jobState) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, Tenant: j.Tenant, State: j.state, Spec: j.Spec,
		Error: j.errMsg, Created: j.Created,
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if n := len(j.events); n > 0 {
		ev := j.events[n-1]
		st.Progress = &ev
	}
	return st
}

func (j *jobState) snapshotResult() (*JobResult, string, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state, j.errMsg
}

// tenantState tracks one tenant's concurrent-job count against the
// server quota.
type tenantState struct {
	name    string
	mu      sync.Mutex
	running int
}

func (t *tenantState) acquire(quota int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running >= quota {
		return false
	}
	t.running++
	return true
}

func (t *tenantState) release() {
	t.mu.Lock()
	t.running--
	t.mu.Unlock()
}

// drainGroup counts in-flight jobs and refuses new ones once draining
// — the WaitGroup is only ever Add()ed under the mutex while not
// draining, so drain() cannot race a concurrent Add.
type drainGroup struct {
	mu       sync.Mutex
	draining bool
	wg       sync.WaitGroup
}

// add registers an in-flight job; ok is false once draining started.
func (d *drainGroup) add() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return false
	}
	d.wg.Add(1)
	return true
}

func (d *drainGroup) done() { d.wg.Done() }

// drain stops admission and blocks until every in-flight job is done.
func (d *drainGroup) drain() {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
	d.wg.Wait()
}

// sweepVal is the cacheable value of one (topology, stack, test)
// runner job: the measurements plus the post-run counter snapshots.
// Cached hits hand every job the same value; it is treated as
// immutable.
type sweepVal struct {
	Results []imb.Result
	Net     cluster.NetStats
	CPU     []HostCPU
}

// hostCPUs snapshots every host's CPU ledger, ordered by host name to
// match NetStats ordering.
func hostCPUs(c *cluster.Cluster) []HostCPU {
	hosts := append([]*cluster.Host(nil), c.Hosts()...)
	sort.Slice(hosts, func(i, k int) bool { return hosts[i].Name < hosts[k].Name })
	out := make([]HostCPU, len(hosts))
	for i, h := range hosts {
		out[i] = HostCPU{Host: h.Name, Stats: h.Machine().Sys.Snapshot()}
	}
	return out
}

// itersFunc turns the spec's fixed iteration count into an imb
// schedule (nil = the default schedule).
func itersFunc(n int) func(int) int {
	if n <= 0 {
		return nil
	}
	return func(int) int { return n }
}

// sweepTable assembles a sweep job's per-stack points into one table,
// series in stack declaration order — exactly the table a direct
// figures call over the same results would produce, which is what the
// service battery asserts with metrics.Table.Equal.
func sweepTable(spec JobSpec, points []PointResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("%s on %s (ppn=%d)", spec.Test, spec.Cluster, spec.PPN),
		"msgsize", "t[usec]")
	for _, p := range points {
		s := &metrics.Series{Name: p.Label}
		for _, r := range p.Results {
			s.Add(float64(r.Bytes), r.TimeUsec)
		}
		t.Series = append(t.Series, s)
	}
	return t
}

// runJob executes a job to its terminal state. It runs on its own
// goroutine; quota and drain bookkeeping bracket it.
func (s *Server) runJob(t *tenantState, j *jobState, topo TopologySpec) {
	defer s.drain.done()
	defer t.release()
	res, err := s.executeJob(j, topo)
	j.finish(res, err)
}

// executeJob runs the job's work on the shared pool, wiring the
// pool's progress snapshots into the job's event stream.
func (s *Server) executeJob(j *jobState, topo TopologySpec) (*JobResult, error) {
	if s.testJobGate != nil {
		s.testJobGate()
	}
	sink := func(p runner.Progress) {
		j.publish(JobEvent{
			Type: "progress", Done: p.Done, Total: p.Total,
			Cached: p.Cached, Errs: p.Errs,
			ElapsedMs: p.Elapsed.Milliseconds(),
			ETAMs:     p.ETA.Milliseconds(), ETAKnown: p.ETAKnown,
			Label: p.Label,
		})
	}
	spec := j.Spec
	if spec.Kind == "figure" {
		sec, ok := figures.SectionByName(spec.Figure)
		if !ok {
			return nil, fmt.Errorf("simd: unknown figure section %q", spec.Figure)
		}
		// figureVal is the cacheable value of a figure job: the
		// rendered text plus, for the timeline section, the I/OAT
		// receive timeline's Chrome trace_event export (both render
		// from one deterministic capture, so caching stays sound).
		type figureVal struct {
			Text  string
			Trace []byte
		}
		results := s.pool.RunWithProgress(sink, runner.Job{
			Label: "figure/" + sec.Name,
			Key:   runner.Key("simd-figure", sec.Name),
			Run: func() (any, error) {
				v := figureVal{Text: sec.Render(false)}
				if sec.Name == "timeline" {
					v.Trace = figures.TimelineTraceJSON(true)
				}
				return v, nil
			},
		})
		vals, err := runner.ValuesErr[figureVal](results)
		if err != nil {
			return nil, err
		}
		return &JobResult{Figure: vals[0].Text, Trace: vals[0].Trace}, nil
	}
	iters := itersFunc(spec.Iters)
	jobs := make([]runner.Job, len(spec.Stacks))
	for i, st := range spec.Stacks {
		fs, err := st.stack()
		if err != nil {
			return nil, err
		}
		jobs[i] = runner.Job{
			Label: fmt.Sprintf("sweep/%s/%s", spec.Test, fs.Name()),
			// The key is pure config — topology, stack, placement, test,
			// sizes, schedule — so identical requests from any tenant
			// share one cached simulation.
			Key: runner.Key("simd-sweep", topo, st, spec.PPN, spec.Test, spec.Sizes, spec.Iters),
			Run: func() (any, error) {
				top, err := topo.topology()
				if err != nil {
					return nil, err
				}
				res, c, err := figures.SweepOn(top, fs, spec.PPN, spec.Test, spec.Sizes, iters)
				if err != nil {
					return nil, err
				}
				defer c.Close()
				return sweepVal{Results: res, Net: c.NetStats(), CPU: hostCPUs(c)}, nil
			},
		}
	}
	results := s.pool.RunWithProgress(sink, jobs...)
	vals, err := runner.ValuesErr[sweepVal](results)
	if err != nil {
		return nil, err
	}
	points := make([]PointResult, len(vals))
	for i, v := range vals {
		points[i] = PointResult{
			Stack: spec.Stacks[i], Label: results[i].Label, Cached: results[i].Cached,
			Results: v.Results, Net: v.Net, CPU: v.CPU,
		}
	}
	return &JobResult{Table: sweepTable(spec, points), Points: points}, nil
}
