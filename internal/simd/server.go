// Package simd is the omxsimd service: a long-running multi-tenant
// HTTP front end over the simulator. Tenants create named clusters
// from the declarative topology vocabulary, submit experiment jobs
// (IMB sweeps over stacks, or whole figure sections) that run on the
// shared bounded runner pool, follow per-job progress over SSE, and
// fetch results together with network and CPU counter snapshots.
//
// The simulation is deterministic, so results are cacheable under a
// pure-config hash (runner.Key): two tenants asking the same question
// share one simulation, and the second answer is bit-identical to the
// first — and to what a direct figures call would produce.
//
// API (all JSON; {tenant}, {name} and {id} are path segments):
//
//	GET    /healthz                                liveness + counts
//	GET    /v1/sections                            figure section list
//	POST   /v1/tenants/{tenant}/clusters           create named cluster
//	GET    /v1/tenants/{tenant}/clusters           list clusters
//	GET    /v1/tenants/{tenant}/clusters/{name}    inspect cluster
//	DELETE /v1/tenants/{tenant}/clusters/{name}    delete cluster
//	POST   /v1/tenants/{tenant}/jobs               submit job (202)
//	GET    /v1/tenants/{tenant}/jobs               list jobs
//	GET    /v1/tenants/{tenant}/jobs/{id}          job status
//	GET    /v1/tenants/{tenant}/jobs/{id}/events   SSE progress stream
//	GET    /v1/tenants/{tenant}/jobs/{id}/result   result (409 if running)
//	GET    /v1/tenants/{tenant}/jobs/{id}/trace    Chrome trace_event JSON
//	                                               (409 if running, 404 if
//	                                               the job has no trace)
package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"omxsim/cluster"
	"omxsim/figures"
	"omxsim/imb"
	"omxsim/runner"
)

// DefaultQuota is the per-tenant concurrent-job limit when Config
// leaves it zero.
const DefaultQuota = 4

// Bounds on what one client can hold of the service.
const (
	// maxBodyBytes caps a JSON request body; a larger one gets 413.
	// The largest legitimate body, a topology spec, is a few kB.
	maxBodyBytes = 1 << 20
	// readHeaderTimeout closes a connection that has not sent its
	// request headers in time.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes a keep-alive connection idle this long.
	idleTimeout = 2 * time.Minute
)

// Config configures a Server.
type Config struct {
	// Quota is the per-tenant concurrent-job limit (0 = DefaultQuota).
	Quota int
	// Pool runs the jobs (nil = runner.Default(), the process-wide
	// bounded pool with the shared result cache).
	Pool *runner.Pool
	// Logger receives structured request and job logs (nil =
	// slog.Default()).
	Logger *slog.Logger
}

// Server is the omxsimd service. Create with NewServer; serve with
// Serve (own listener) or mount Handler() (httptest, embedding).
type Server struct {
	quota   int
	pool    *runner.Pool
	log     *slog.Logger
	handler http.Handler
	hs      *http.Server

	tenants  *StateStore[*tenantState]
	clusters *StateStore[*clusterRec]
	jobs     *StateStore[*jobState]
	nextJob  atomic.Int64
	nextReq  atomic.Int64
	drain    drainGroup

	// testJobGate, when set, is called at the start of every job —
	// test hook that lets the battery hold jobs in the running state
	// deterministically; nil in production.
	testJobGate func()
}

// clusterRec is a named tenant cluster: the spec plus the counts a
// dry build of it produced.
type clusterRec struct {
	Tenant   string       `json:"tenant"`
	Name     string       `json:"name"`
	Spec     TopologySpec `json:"spec"`
	Hosts    int          `json:"hosts"`
	NICs     int          `json:"nics"`
	Switches int          `json:"switches"`
	Created  time.Time    `json:"created"`
}

// NewServer builds the service around its routing table.
func NewServer(cfg Config) *Server {
	s := &Server{
		quota:    cfg.Quota,
		pool:     cfg.Pool,
		log:      cfg.Logger,
		tenants:  NewStateStore[*tenantState](),
		clusters: NewStateStore[*clusterRec](),
		jobs:     NewStateStore[*jobState](),
	}
	if s.quota <= 0 {
		s.quota = DefaultQuota
	}
	if s.pool == nil {
		s.pool = runner.Default()
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/sections", s.handleSections)
	mux.HandleFunc("POST /v1/tenants/{tenant}/clusters", s.handleClusterCreate)
	mux.HandleFunc("GET /v1/tenants/{tenant}/clusters", s.handleClusterList)
	mux.HandleFunc("GET /v1/tenants/{tenant}/clusters/{name}", s.handleClusterGet)
	mux.HandleFunc("DELETE /v1/tenants/{tenant}/clusters/{name}", s.handleClusterDelete)
	mux.HandleFunc("POST /v1/tenants/{tenant}/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/tenants/{tenant}/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/tenants/{tenant}/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/tenants/{tenant}/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/tenants/{tenant}/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/tenants/{tenant}/jobs/{id}/trace", s.handleJobTrace)
	s.handler = s.withRequestLog(mux)
	s.hs = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	return s
}

// Handler returns the service's HTTP handler (request-ID and logging
// middleware included) for httptest servers or embedding.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on ln until Shutdown. A clean shutdown
// returns nil.
func (s *Server) Serve(ln net.Listener) error {
	err := s.hs.Serve(ln)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown stops accepting requests, then blocks until every
// in-flight job has finished (new submissions get 503 while
// draining). ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	herr := s.hs.Shutdown(ctx)
	done := make(chan struct{})
	go func() {
		s.drain.drain()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return herr
}

// --- helpers ---

// decodeBody decodes r's JSON body into v, reading at most
// maxBodyBytes of it. On failure it writes the response itself (413
// for an oversize body, 400 for a malformed one) and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		s.error(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxBodyBytes)
	default:
		s.error(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error struct {
		Status  int    `json:"status"`
		Message string `json:"message"`
	} `json:"error"`
}

func (s *Server) error(w http.ResponseWriter, status int, format string, args ...any) {
	var e apiError
	e.Error.Status = status
	e.Error.Message = fmt.Sprintf(format, args...)
	writeJSON(w, status, e)
}

// validName admits tenant, cluster and job name path segments:
// non-empty [a-zA-Z0-9._-], at most 64 bytes.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// tenantOf validates the {tenant} path segment; empty means the
// request was already answered.
func (s *Server) tenantOf(w http.ResponseWriter, r *http.Request) string {
	t := r.PathValue("tenant")
	if !validName(t) {
		s.error(w, http.StatusBadRequest, "invalid tenant name %q", t)
		return ""
	}
	return t
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var hits, misses int
	if c := s.pool.Cache(); c != nil {
		hits, misses = c.Stats()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"clusters":    s.clusters.Count(),
		"jobs":        s.jobs.Count(),
		"cacheHits":   hits,
		"cacheMisses": misses,
	})
}

func (s *Server) handleSections(w http.ResponseWriter, r *http.Request) {
	type sec struct {
		Name string `json:"name"`
		Desc string `json:"desc"`
	}
	var out []sec
	for _, x := range figures.Sections() {
		out = append(out, sec{x.Name, x.Desc})
	}
	writeJSON(w, http.StatusOK, out)
}

type clusterCreateReq struct {
	Name     string       `json:"name"`
	Topology TopologySpec `json:"topology"`
}

func (s *Server) handleClusterCreate(w http.ResponseWriter, r *http.Request) {
	tenant := s.tenantOf(w, r)
	if tenant == "" {
		return
	}
	var req clusterCreateReq
	if !s.decodeBody(w, r, &req) {
		return
	}
	if !validName(req.Name) {
		s.error(w, http.StatusBadRequest, "invalid cluster name %q", req.Name)
		return
	}
	// Dry-build now: an invalid topology is rejected here, with the
	// builder's own message, instead of failing every later job.
	top, err := req.Topology.topology()
	if err != nil {
		s.error(w, http.StatusBadRequest, "invalid topology: %v", err)
		return
	}
	c, err := cluster.BuildE(top)
	if err != nil {
		s.error(w, http.StatusBadRequest, "invalid topology: %v", err)
		return
	}
	nics := 0
	for _, h := range c.Hosts() {
		nics += len(h.Machine().NICs)
	}
	rec := &clusterRec{
		Tenant: tenant, Name: req.Name, Spec: req.Topology,
		Hosts: len(c.Hosts()), NICs: nics, Switches: len(c.Switches()),
		Created: time.Now(),
	}
	if !s.clusters.PutIfAbsent(tenant+"/"+req.Name, rec) {
		s.error(w, http.StatusConflict, "cluster %q already exists", req.Name)
		return
	}
	s.log.Info("cluster created", "tenant", tenant, "cluster", req.Name,
		"hosts", rec.Hosts, "nics", rec.NICs, "switches", rec.Switches)
	writeJSON(w, http.StatusCreated, rec)
}

func (s *Server) handleClusterList(w http.ResponseWriter, r *http.Request) {
	tenant := s.tenantOf(w, r)
	if tenant == "" {
		return
	}
	out := []*clusterRec{}
	for _, rec := range s.clusters.List() {
		if rec.Tenant == tenant {
			out = append(out, rec)
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleClusterGet(w http.ResponseWriter, r *http.Request) {
	tenant := s.tenantOf(w, r)
	if tenant == "" {
		return
	}
	rec, ok := s.clusters.Get(tenant + "/" + r.PathValue("name"))
	if !ok {
		s.error(w, http.StatusNotFound, "no cluster %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Server) handleClusterDelete(w http.ResponseWriter, r *http.Request) {
	tenant := s.tenantOf(w, r)
	if tenant == "" {
		return
	}
	if !s.clusters.Delete(tenant + "/" + r.PathValue("name")) {
		s.error(w, http.StatusNotFound, "no cluster %q", r.PathValue("name"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := s.tenantOf(w, r)
	if tenant == "" {
		return
	}
	var spec JobSpec
	if !s.decodeBody(w, r, &spec) {
		return
	}
	var topo TopologySpec
	switch spec.Kind {
	case "", "sweep":
		spec.Kind = "sweep"
		rec, ok := s.clusters.Get(tenant + "/" + spec.Cluster)
		if !ok {
			s.error(w, http.StatusNotFound, "no cluster %q", spec.Cluster)
			return
		}
		topo = rec.Spec
		canon, ok := imb.Canon(spec.Test)
		if !ok {
			s.error(w, http.StatusBadRequest, "unknown IMB test %q", spec.Test)
			return
		}
		spec.Test = canon
		if len(spec.Sizes) == 0 {
			s.error(w, http.StatusBadRequest, "sweep needs at least one message size")
			return
		}
		for _, n := range spec.Sizes {
			if n < 0 {
				s.error(w, http.StatusBadRequest, "negative message size %d", n)
				return
			}
		}
		if spec.PPN == 0 {
			spec.PPN = 1
		}
		if spec.PPN < 1 || spec.PPN > figures.MaxPPN() {
			s.error(w, http.StatusBadRequest, "ppn %d out of range 1..%d", spec.PPN, figures.MaxPPN())
			return
		}
		if len(spec.Stacks) == 0 {
			s.error(w, http.StatusBadRequest, "sweep needs at least one stack")
			return
		}
		for _, st := range spec.Stacks {
			if _, err := st.stack(); err != nil {
				s.error(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
	case "figure":
		if _, ok := figures.SectionByName(spec.Figure); !ok {
			s.error(w, http.StatusBadRequest, "unknown figure section %q", spec.Figure)
			return
		}
	default:
		s.error(w, http.StatusBadRequest, `unknown job kind %q (want "sweep" or "figure")`, spec.Kind)
		return
	}
	t := s.tenants.GetOrPut(tenant, func() *tenantState { return &tenantState{name: tenant} })
	if !t.acquire(s.quota) {
		s.error(w, http.StatusTooManyRequests,
			"tenant %q already has %d running jobs (quota)", tenant, s.quota)
		return
	}
	if !s.drain.add() {
		t.release()
		s.error(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	id := fmt.Sprintf("job-%06d", s.nextJob.Add(1))
	j := newJobState(id, tenant, spec)
	s.jobs.Put(tenant+"/"+id, j)
	s.log.Info("job submitted", "tenant", tenant, "job", id,
		"kind", spec.Kind, "cluster", spec.Cluster, "test", spec.Test, "figure", spec.Figure)
	go s.runJob(t, j, topo)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	tenant := s.tenantOf(w, r)
	if tenant == "" {
		return
	}
	out := []JobStatus{}
	for _, j := range s.jobs.List() {
		if j.Tenant == tenant {
			out = append(out, j.status())
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// lookupJob resolves {tenant}/{id}; nil means the request was
// already answered.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *jobState {
	tenant := s.tenantOf(w, r)
	if tenant == "" {
		return nil
	}
	j, ok := s.jobs.Get(tenant + "/" + r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return nil
	}
	return j
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if j := s.lookupJob(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	res, state, errMsg := j.snapshotResult()
	switch state {
	case StateRunning:
		s.error(w, http.StatusConflict, "job %s is still running", j.ID)
	case StateFailed:
		s.error(w, http.StatusConflict, "job %s failed: %s", j.ID, errMsg)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

// handleJobTrace serves a finished job's Chrome trace_event document
// (chrome://tracing, Perfetto). Only jobs that capture a trace have
// one — currently figure jobs of the timeline section.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	res, state, errMsg := j.snapshotResult()
	switch {
	case state == StateRunning:
		s.error(w, http.StatusConflict, "job %s is still running", j.ID)
	case state == StateFailed:
		s.error(w, http.StatusConflict, "job %s failed: %s", j.ID, errMsg)
	case len(res.Trace) == 0:
		s.error(w, http.StatusNotFound, "job %s has no trace", j.ID)
	default:
		w.Header().Set("Content-Type", "application/json")
		w.Write(res.Trace)
	}
}
