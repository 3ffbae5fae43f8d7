// oarsmt-serve is the routing daemon: an HTTP front end speaking the
// versioned wire protocol over the embeddable batch-inference service
// of internal/serve — or, with -coordinator, the cluster coordinator
// that shards requests across a fleet of such workers.
//
// Usage:
//
//	oarsmt-serve                          # single worker, embedded model, :8931
//	oarsmt-serve -addr :9000 -model selector.gob -queue 128 -batch 16
//	oarsmt-serve -coordinator -addr :8930 # cluster coordinator
//	oarsmt-serve -addr :9001 -register http://127.0.0.1:8930 -worker-id w1
//
// Endpoints (worker and coordinator are interchangeable to clients):
//
//	POST /v1/route    route a layout (wire.RouteRequest envelope)
//	GET  /v1/healthz  liveness (503 once draining)
//	GET  /v1/stats    counters (wire.Stats / wire.ClusterStats)
//	GET  /v1/metrics  Prometheus text exposition
//	POST /v1/cluster/{register,lease,drain}     cluster plane (coordinator only)
//	/debug/pprof/     Go profiling endpoints (with -pprof)
//
// SIGINT/SIGTERM triggers a graceful drain: a registered worker first
// tells its coordinator to stop routing to it, then in-flight and
// queued requests are answered, new ones are refused, and the process
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"oarsmt/internal/cluster"
	"oarsmt/internal/models"
	"oarsmt/internal/selector"
	"oarsmt/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oarsmt-serve: ")

	var (
		addr       = flag.String("addr", ":8931", "listen address")
		coordMode  = flag.Bool("coordinator", false, "run the cluster coordinator instead of a worker")
		modelPath  = flag.String("model", "", "trained selector model (default: embedded)")
		queueSize  = flag.Int("queue", 64, "job queue capacity (overflow returns 429)")
		maxBatch   = flag.Int("batch", 8, "max already-queued layouts one scheduler lane takes per pass")
		cacheSize  = flag.Int("cache", 256, "routed-layout cache bound without -store-dir (negative disables)")
		storeDir   = flag.String("store-dir", "", "make the cache persistent in this directory (restarts serve previously-routed layouts warm)")
		storeMax   = flag.Int("store-entries", 4096, "routed-layout cache bound with -store-dir")
		storeFlush = flag.Int("store-flush", 0, "routes per background store segment write (0 = store default)")
		maxVolume  = flag.Int("max-volume", 1<<20, "max Hanan-graph vertices per layout")
		timeout    = flag.Duration("timeout", 60*time.Second, "default per-request deadline (0 = none)")
		seq        = flag.Bool("sequential", false, "sequential (n-2 inference) selection mode")
		noGuard    = flag.Bool("no-guard", false, "disable guarded acceptance")
		f32        = flag.Bool("f32", false, "float32 inference storage (faster, last-bit off the float64 reference)")
		drainWait  = flag.Duration("drain", 30*time.Second, "max graceful-shutdown wait")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")

		// Worker-mode cluster membership.
		register  = flag.String("register", "", "coordinator base URL to join (empty: standalone worker)")
		workerID  = flag.String("worker-id", "", "stable ring identity (default: the advertise address)")
		advertise = flag.String("advertise", "", "base URL the coordinator reaches this worker at (default: http://127.0.0.1:<port>)")

		// Coordinator-mode knobs.
		leaseTTL    = flag.Duration("lease-ttl", 10*time.Second, "coordinator: worker lease duration")
		hedgeDelay  = flag.Duration("hedge-delay", 100*time.Millisecond, "coordinator: hedge a slow shard after this delay (negative disables)")
		stateDir    = flag.String("state-dir", "", "coordinator: persist membership here and restore it on restart (empty disables)")
		maxInflight = flag.Int("max-inflight", 256, "coordinator: admitted-forward bound, excess sheds with 429 (negative disables)")
		breakerN    = flag.Int("breaker-threshold", 5, "coordinator: consecutive failures tripping a worker's breaker (negative disables)")
		breakerCool = flag.Duration("breaker-cooldown", 3*time.Second, "coordinator: open-breaker cooldown before the half-open probe")
		replicate   = flag.Bool("replicate", false, "coordinator: install fresh routes on the key's next ring replica (warm failover)")
		replicaQ    = flag.Int("replica-queue", 64, "coordinator: bounded replication queue capacity")
	)
	flag.Parse()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	// preShutdown runs before the HTTP listener drains (cluster drain
	// notices); postShutdown runs after in-flight handlers finished
	// (closing the service itself).
	var handler http.Handler
	preShutdown := func(context.Context) {}
	postShutdown := func() {}
	if *coordMode {
		coord, err := cluster.New(cluster.Config{
			LeaseTTL:         *leaseTTL,
			HedgeDelay:       *hedgeDelay,
			ForwardTimeout:   *timeout,
			MaxVolume:        *maxVolume,
			StateDir:         *stateDir,
			MaxInflight:      *maxInflight,
			BreakerThreshold: *breakerN,
			BreakerCooldown:  *breakerCool,
			Replicate:        *replicate,
			ReplicaQueue:     *replicaQ,
		})
		if err != nil {
			log.Fatal(err)
		}
		handler = coord.Handler()
		postShutdown = coord.Close
		if *stateDir != "" {
			log.Printf("coordinator state: %s (%d workers restored)", *stateDir, coord.Stats().Restored)
		}
		log.Printf("coordinator listening on %s (lease %s, hedge %s, replicate %v)", ln.Addr(), *leaseTTL, *hedgeDelay, *replicate)
	} else {
		sel, err := loadSelector(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		svc, err := serve.NewService(serve.Config{
			Selector:            sel,
			QueueSize:           *queueSize,
			MaxBatch:            *maxBatch,
			CacheSize:           *cacheSize,
			StoreDir:            *storeDir,
			StoreMaxEntries:     *storeMax,
			StoreFlushEvery:     *storeFlush,
			MaxVolume:           *maxVolume,
			DefaultTimeout:      *timeout,
			NoGuard:             *noGuard,
			SequentialInference: *seq,
			Float32:             *f32,
		})
		if err != nil {
			log.Fatal(err)
		}
		handler = svc.Handler()
		postShutdown = svc.Close

		if *register != "" {
			adv := *advertise
			if adv == "" {
				port := ln.Addr().(*net.TCPAddr).Port
				adv = "http://127.0.0.1:" + strconv.Itoa(port)
			}
			id := *workerID
			if id == "" {
				id = adv
			}
			agent, err := cluster.StartAgent(context.Background(), cluster.AgentConfig{
				Coordinator: *register,
				ID:          id,
				Advertise:   adv,
			})
			if err != nil {
				log.Fatal(err)
			}
			log.Printf("registered with %s as %q (advertising %s)", *register, id, adv)
			preShutdown = func(ctx context.Context) {
				// Tell the coordinator first so new requests stop
				// arriving before the local queue drains.
				if err := agent.Drain(ctx); err != nil {
					log.Printf("drain notice: %v", err)
				}
			}
		}
		cacheBound := *cacheSize
		if *storeDir != "" {
			cacheBound = *storeMax
			log.Printf("route store: %s (max %d entries)", *storeDir, *storeMax)
		}
		log.Printf("listening on %s (queue %d, batch %d, cache %d)",
			ln.Addr(), *queueSize, *maxBatch, cacheBound)
	}

	if *pprofOn {
		// The service handler owns everything else; pprof mounts beside it
		// on an explicit mux (the binary never touches http.DefaultServeMux).
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}
	srv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	//oarsmt:allow rawgo(daemon plumbing: Serve blocks until shutdown and never touches routing state)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Print("draining...")

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	preShutdown(shutdownCtx)
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	postShutdown()
	log.Print("drained, bye")
}

func loadSelector(path string) (*selector.Selector, error) {
	if path == "" {
		sel, err := models.New()
		if err != nil {
			return nil, errors.New("embedded model unavailable; pass -model selector.gob")
		}
		return sel, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return selector.Load(f)
}
