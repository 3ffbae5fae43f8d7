package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"

	"oarsmt/client"
	"oarsmt/internal/cluster"
	"oarsmt/internal/models"
	"oarsmt/internal/serve"
	"oarsmt/wire"
)

// The serving stack under test: one coordinator and two workers, every
// one on its own loopback listener, with configurations left at their
// zero values so a change to any serving default is measured as users
// would see it.
const (
	numWorkers = 2
	// numClients bounds the load generator to two concurrent requests
	// and two connections, the core count of the reference machine.
	numClients = 2
)

// server is one HTTP listener of the stack.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	//oarsmt:allow rawgo(HTTP accept loop: ended by close, which waits on done)
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return s, nil
}

// close stops the listener, drops its connections and waits for Serve to
// return.
func (s *server) close() {
	s.srv.Close()
	<-s.done
}

// stack is a running coordinator, its workers and the load client.
type stack struct {
	coord    *cluster.Coordinator
	services []*serve.Service
	agents   []*cluster.Agent
	servers  []*server // coordinator first
	workers  []string  // worker ids, in start order
	cl       *client.Client
	tr       *http.Transport
}

// workerIndex maps a response's worker id to its index, -1 if unknown.
func (st *stack) workerIndex(id string) int8 {
	for i, w := range st.workers {
		if w == id {
			return int8(i)
		}
	}
	return -1
}

// startStack brings the stack up. storeRoot, when set, gives each worker
// a route-store directory beneath it. A non-nil tracer wraps the
// coordinator's and every worker's handler and stamps request ids onto
// outgoing requests; it records only while switched on.
func startStack(storeRoot string, t *tracer) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.coord, err = cluster.New(cluster.Config{}); err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	cs, err := listen(t.wrap(-1, st.coord.Handler()))
	if err != nil {
		return nil, err
	}
	st.servers = append(st.servers, cs)
	for i := 0; i < numWorkers; i++ {
		id := fmt.Sprintf("w%d", i)
		st.workers = append(st.workers, id)
		sel, err := models.New()
		if err != nil {
			return nil, fmt.Errorf("loading selector: %w", err)
		}
		cfg := serve.Config{Selector: sel}
		if storeRoot != "" {
			cfg.StoreDir = filepath.Join(storeRoot, id)
		}
		svc, err := serve.NewService(cfg)
		if err != nil {
			return nil, fmt.Errorf("worker %s: %w", id, err)
		}
		st.services = append(st.services, svc)
		ws, err := listen(t.wrap(int8(i), svc.Handler()))
		if err != nil {
			return nil, err
		}
		st.servers = append(st.servers, ws)
		ag, err := cluster.StartAgent(context.Background(), cluster.AgentConfig{
			Coordinator: cs.url, ID: id, Advertise: ws.url,
		})
		if err != nil {
			return nil, fmt.Errorf("worker %s: %w", id, err)
		}
		st.agents = append(st.agents, ag)
	}
	if n := len(st.coord.Workers()); n != numWorkers {
		return nil, fmt.Errorf("coordinator sees %d workers, want %d", n, numWorkers)
	}
	st.tr = &http.Transport{MaxConnsPerHost: numClients, MaxIdleConnsPerHost: numClients}
	var rt http.RoundTripper = st.tr
	if t != nil {
		rt = idTransport{st.tr}
	}
	st.cl, err = client.New(client.Config{BaseURL: cs.url, HTTPClient: &http.Client{Transport: rt}})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// close tears down whatever startStack built, in dependency order, and
// returns once every goroutine the stack started has exited.
func (st *stack) close() {
	for _, a := range st.agents {
		a.Close()
	}
	for _, s := range st.servers {
		s.close()
	}
	if st.coord != nil {
		st.coord.Close()
	}
	for _, svc := range st.services {
		svc.Close()
	}
	if st.tr != nil {
		st.tr.CloseIdleConnections()
	}
	// The coordinator's per-worker clients use the default transport.
	if c, ok := http.DefaultTransport.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// stats is a counter snapshot of every layer that keeps counters.
type stats struct {
	coord    wire.ClusterStats
	services []wire.Stats
}

func (st *stack) snapshot() stats {
	s := stats{coord: st.coord.Stats()}
	for _, svc := range st.services {
		s.services = append(s.services, svc.Stats())
	}
	return s
}
