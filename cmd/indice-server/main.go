// Command indice-server serves the INDICE dashboards over HTTP: the
// dynamic, navigable counterpart of the one-shot indice CLI.
//
// Every node serves the same way: the input is loaded into a sharded
// store, the pipeline runs over a consistent snapshot of it, and requests
// read the published result. By default the dataset is frozen — loaded
// and analyzed once before the server listens, the paper's batch
// workflow; the (-use-selected) input must reach the refresh threshold:
//
//	indice-server -epcs epcs.csv -addr :8080
//
// With -ingest the node also accepts writes: certificates stream in via
// POST /api/ingest, and the pipeline re-runs over fresh snapshots — on
// demand (POST /api/refresh) and/or on a timer:
//
//	indice-server -ingest -refresh-interval 30s -shards 4 -addr :8080
//
// With -data-dir the ingesting store is durable: every acked ingest batch
// is written ahead to a crash-safe log before it becomes visible, sealed
// segments are checkpointed to disk, and a restart over the same
// directory recovers exactly the acked state — kill -9 loses nothing:
//
//	indice-server -ingest -data-dir /var/lib/indice -fsync always
//
// Routes: / (navigation), /dashboard/{stakeholder}, /map?level=&attr=,
// /api/{stats,zones,rules,clusters,query,presets,store,refresh,health} and
// the Prometheus /metrics exposition; POST /api/ingest answers 404 without
// -ingest.
//
// Scale-out serving splits the load over processes with -role. A leader
// is a live server that additionally streams its sealed segments to
// replicas and runs the cluster's one analysis. A replica is a store: it
// pulls, serves /api/query at its leader's epochs and answers
// epoch-pinned partial queries, and redirects (307) the dashboards, maps
// and analysis APIs to its leader. A coordinator fans /api/query out over
// the replicas and merges the partials at one common epoch:
//
//	indice-server -ingest -role leader -addr :8080
//	indice-server -role replica -leader http://localhost:8080 -addr :8081
//	indice-server -role coordinator -replicas http://localhost:8081,http://localhost:8082 -addr :8090
//
// All roles expose GET /api/ready (503 until the process can serve
// correct data) next to the always-200 /api/health report.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"indice/internal/core"
	"indice/internal/epc"
	"indice/internal/geo"
	"indice/internal/geocode"
	"indice/internal/obs"
	"indice/internal/parallel"
	"indice/internal/query"
	"indice/internal/scaleout"
	"indice/internal/server"
	"indice/internal/store"
	"indice/internal/synth"
	"indice/internal/table"
)

// roleFlags lists the flags a replica and a coordinator read besides
// -role, -addr and -pprof: neither builds a corpus, an analysis or a
// store of its own configuration, so every other flag is ignored.
var roleFlags = map[string][]string{
	"replica":     {"leader", "sync-interval", "data-dir"},
	"coordinator": {"replicas", "hedge-after", "replica-timeout"},
}

// unreadFlags returns the set flags a replica or a coordinator does not
// read, flag-prefixed and in the order given; nil for any other role.
func unreadFlags(role string, set []string) []string {
	reads, ok := roleFlags[role]
	if !ok {
		return nil
	}
	var out []string
	for _, name := range set {
		if !slices.Contains(reads, name) && name != "role" && name != "addr" && name != "pprof" {
			out = append(out, "-"+name)
		}
	}
	return out
}

func main() {
	var (
		epcsPath = flag.String("epcs", "", "EPC table (typed CSV); empty generates a synthetic demo collection")
		n        = flag.Int("n", 8000, "synthetic certificates when -epcs is empty (0 starts an -ingest node empty)")
		addr     = flag.String("addr", ":8080", "listen address")
		use      = flag.String("use", epc.UseResidential, "intended-use selection ('' disables); without -ingest only")
		kMax     = flag.Int("kmax", 10, "upper bound of the K-means sweep")
		par      = flag.Int("parallelism", 0, "analytics worker goroutines (0 = all CPUs, 1 = sequential); results are identical at any setting")

		ingest          = flag.Bool("ingest", false, "accept writes: POST /api/ingest appends to the store (without it the dataset is loaded once and served frozen)")
		refreshInterval = flag.Duration("refresh-interval", 0, "with -ingest: re-run the pipeline this often (0 = only on POST /api/refresh)")
		shards          = flag.Int("shards", 4, "store shard count")
		validate        = flag.Bool("validate", false, "reject ingested rows violating the EPC attribute specs")
		dataDir         = flag.String("data-dir", "", "with -ingest: persist the store here (WAL + checkpoints); empty keeps it in memory. A non-empty directory is recovered on boot")
		fsyncMode       = flag.String("fsync", "always", "WAL flush policy with -data-dir: always, interval or off")
		residentRows    = flag.Int("max-resident-rows", 0, "with -data-dir: evict checkpointed segments beyond this many resident rows (0 = keep all in memory)")
		pprofAddr       = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables profiling (default)")

		role           = flag.String("role", "", "scale-out role: leader, replica or coordinator (empty = single node)")
		leaderURL      = flag.String("leader", "", "replica: the leader's base URL (http://host:port)")
		replicaList    = flag.String("replicas", "", "coordinator: comma-separated replica base URLs")
		syncInterval   = flag.Duration("sync-interval", time.Second, "replica: leader poll interval")
		hedgeAfter     = flag.Duration("hedge-after", 250*time.Millisecond, "coordinator: hedge a slow shard-range leg to the next replica after this long")
		replicaTimeout = flag.Duration("replica-timeout", 5*time.Second, "coordinator: per-replica request timeout")
	)
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	if unread := unreadFlags(*role, set); len(unread) > 0 {
		fmt.Fprintf(os.Stderr, "-role %s ignores %s\n", *role, strings.Join(unread, " "))
	}
	workers := *par
	if workers == 0 {
		workers = parallel.Auto
	}

	var (
		tab  *table.Table
		hier *geo.Hierarchy
		opts core.Options
	)
	// Replicas get their rows from the leader and coordinators hold no
	// data; neither runs an analysis, so neither builds a city, a street
	// map or a corpus.
	switch {
	case *role == "replica" || *role == "coordinator":
	case *epcsPath == "":
		city, err := synth.GenerateCity(synth.DefaultCityConfig())
		if err != nil {
			log.Fatal(err)
		}
		hier = city.Hierarchy
		if *n > 0 {
			cfg := synth.DefaultConfig()
			cfg.Certificates = *n
			ds, err := synth.Generate(cfg, city)
			if err != nil {
				log.Fatal(err)
			}
			tab = ds.Table
			fmt.Fprintf(os.Stderr, "generated %d synthetic certificates\n", tab.NumRows())
		}
		if sm, err := geocode.NewStreetMap(city.ReferenceEntries()); err == nil {
			opts.StreetMap = sm
			opts.Geocoder = geocode.NewMockGeocoder(sm, 2000)
		}
	default:
		f, err := os.Open(*epcsPath)
		if err != nil {
			log.Fatal(err)
		}
		tab, err = table.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		lat, err := tab.Floats(epc.AttrLatitude)
		if err != nil {
			log.Fatal(err)
		}
		lon, _ := tab.Floats(epc.AttrLongitude)
		b := geo.EmptyBounds()
		for i := range lat {
			p := geo.Point{Lat: lat[i], Lon: lon[i]}
			if p.Valid() {
				b = b.Extend(p)
			}
		}
		hier, err = geo.GridHierarchy("dataset", b, 2, 4, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d certificates from %s\n", tab.NumRows(), *epcsPath)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Profiling is opt-in and bound to its own listener, so the public
	// dashboard address never exposes /debug/pprof. The same sidecar mux
	// re-exposes /metrics, letting an ops scrape target avoid the public
	// address entirely (the main server serves /metrics too).
	if *pprofAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			mux.HandleFunc("/metrics", obs.Handler(obs.Default))
			fmt.Fprintf(os.Stderr, "pprof listening on %s\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	var handler http.Handler
	closeStore := func() error { return nil }
	// postDrain runs after the HTTP server has drained its in-flight
	// requests and before the store closes: the coordinator's replica
	// clients and the replica's pull loop stop here, so a request being
	// drained never races a client that was torn down under it.
	postDrain := func() {}
	switch *role {
	case "":
		if !*ingest && tab != nil && *use != "" {
			// A frozen boot is the same node minus the writes, serving the
			// selected corpus only.
			var err error
			if tab, err = query.Select(tab, query.In{Attr: epc.AttrIntendedUse, Values: []string{*use}}); err != nil {
				log.Fatal(err)
			}
		}
		handler, closeStore = buildLive(ctx, tab, hier, opts, workers, *kMax, *shards, *validate,
			*refreshInterval, *dataDir, *fsyncMode, *residentRows, *ingest, false)
	case "leader":
		// A leader is a live server (the ingest endpoint feeds it) that
		// additionally streams segments to replicas.
		handler, closeStore = buildLive(ctx, tab, hier, opts, workers, *kMax, *shards, *validate,
			*refreshInterval, *dataDir, *fsyncMode, *residentRows, true, true)
	case "replica":
		if *leaderURL == "" {
			log.Fatal("-role replica requires -leader URL")
		}
		if *dataDir != "" {
			log.Fatal("-role replica keeps its store in memory (it re-syncs from the leader on boot); drop -data-dir")
		}
		handler, closeStore, postDrain = buildReplica(ctx, *leaderURL, *syncInterval)
	case "coordinator":
		if *replicaList == "" {
			log.Fatal("-role coordinator requires -replicas URL,URL,...")
		}
		handler, postDrain = buildCoordinator(*replicaList, *replicaTimeout, *hedgeAfter)
	default:
		log.Fatalf("unknown -role %q (want leader, replica or coordinator)", *role)
	}

	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	// Bind before announcing, so ':0' reports the actual port — test
	// drivers (and the epcgen kill-9 harness) parse this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "serving INDICE on %s\n", ln.Addr())

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "signal received, draining connections")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		// Ordering matters: stop accepting and drain in-flight requests
		// first (a coordinator's fan-outs run on request contexts and
		// complete here), only then stop the cluster clients and close
		// the store.
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Fatalf("shutdown: %v", err)
		}
		postDrain()
		if err := closeStore(); err != nil {
			log.Fatalf("store close: %v", err)
		}
		fmt.Fprintln(os.Stderr, "bye")
	}
}

// buildLive seeds the sharded store, starts the auto-refresh loop and
// serves from the published snapshots. With a data directory the store
// is opened durably — previous state is recovered and every acked ingest
// hits the WAL — and the returned closer flushes it on shutdown. Without
// ingest the seed is all the node will ever hold: the store is a one-shot
// in-memory one, the first refresh must publish it (every refresh of such
// a node is full: the data step over the whole snapshot, then the elbow
// sweep), no lineage is kept for refreshes that will not come, and POST
// /api/ingest answers 404.
func buildLive(ctx context.Context, tab *table.Table, hier *geo.Hierarchy, opts core.Options,
	workers, kMax, shards int, validate bool, refreshInterval time.Duration,
	dataDir, fsyncMode string, residentRows int, ingest, asLeader bool) (http.Handler, func() error) {
	scfg := store.DefaultConfig()
	scfg.Shards = shards
	scfg.Validate = validate
	var st *store.Store
	var err error
	if ingest && dataDir != "" {
		mode, merr := store.ParseFsyncMode(fsyncMode)
		if merr != nil {
			log.Fatal(merr)
		}
		st, err = store.Open(scfg, store.Durability{
			Dir: dataDir, Fsync: mode, MaxResidentRows: residentRows,
		})
		if err == nil {
			if rec := st.RecoveryInfo(); rec != (store.RecoveryInfo{}) {
				fmt.Fprintf(os.Stderr,
					"recovered %s: %d rows from %d checkpoint segments, %d batches (%d rows) replayed from wal in %v\n",
					dataDir, rec.CheckpointRows, rec.CheckpointSegments,
					rec.ReplayedBatches, rec.ReplayedRows, rec.Took.Round(time.Millisecond))
			} else {
				fmt.Fprintf(os.Stderr, "durable store on fresh %s (fsync=%s)\n", dataDir, mode)
			}
		}
	} else {
		st, err = store.New(scfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	// A recovered store already holds its corpus; seeding on top would
	// duplicate rows on every restart.
	if tab != nil && tab.NumRows() > 0 && st.Rows() == 0 {
		res, err := st.AppendTable(tab)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "seeded store with %d certificates (%d rejected)\n",
			res.Accepted, res.Rejected)
	}
	pcfg := core.DefaultPreprocessConfig()
	pcfg.Parallelism = workers
	acfg := core.DefaultAnalysisConfig()
	acfg.KMax = kMax
	acfg.Parallelism = workers
	live, err := core.NewLive(st, hier, core.LiveConfig{
		Preprocess:  pcfg,
		Analysis:    acfg,
		Options:     opts,
		Incremental: core.IncrementalConfig{Disable: !ingest},
	})
	if err != nil {
		log.Fatal(err)
	}
	if st.Rows() > 0 || !ingest {
		if pub, err := live.Refresh(); err != nil {
			if ingest && errors.Is(err, core.ErrStoreTooSmall) {
				fmt.Fprintf(os.Stderr, "initial refresh skipped: %v\n", err)
			} else {
				log.Fatal(err)
			}
		} else {
			fmt.Fprintf(os.Stderr, "initial refresh done in %v (%d certificates, K=%d)\n",
				pub.Took.Round(time.Millisecond), pub.Engine.Table().NumRows(), pub.Analysis.ChosenK)
		}
	}
	go live.AutoRefresh(ctx, refreshInterval)
	var srv *server.Server
	if asLeader {
		srv, err = server.NewLiveCluster(live, server.ClusterConfig{Leader: scaleout.NewLeader(st)})
		fmt.Fprintf(os.Stderr, "leader mode: replication endpoints enabled\n")
	} else {
		srv, err = server.NewLive(live)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "live mode: %d shards, refresh interval %v\n", shards, refreshInterval)
	if !ingest {
		mux := http.NewServeMux()
		mux.Handle("/", srv)
		mux.HandleFunc("/api/ingest", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "this node serves a frozen dataset: start it with -ingest to accept writes", http.StatusNotFound)
		})
		return mux, st.Close
	}
	return srv, st.Close
}

// buildReplica mirrors a leader: it learns the leader's shard layout
// (retrying until the leader is reachable), pulls segment streams into
// an in-memory store, and serves /api/query plus epoch-pinned partial
// queries from it. It runs no analysis: the dashboards, maps and
// analysis APIs answer with a redirect to the leader. The returned
// postDrain stops the pull loop — after the HTTP drain, per the shutdown
// ordering.
func buildReplica(ctx context.Context, leaderURL string, syncInterval time.Duration) (http.Handler, func() error, func()) {
	client := &http.Client{Timeout: 60 * time.Second}
	var info scaleout.LeaderInfo
	for {
		var err error
		if info, err = scaleout.FetchLeaderInfo(ctx, client, leaderURL); err == nil {
			break
		}
		if ctx.Err() != nil {
			log.Fatal("interrupted before the leader became reachable")
		}
		log.Printf("replica: leader %s not reachable (%v), retrying", leaderURL, err)
		select {
		case <-ctx.Done():
			log.Fatal("interrupted before the leader became reachable")
		case <-time.After(time.Second):
		}
	}
	scfg := store.DefaultConfig()
	scfg.Shards = info.Shards
	scfg.SegmentRows = info.SegmentRows
	st, err := store.New(scfg)
	if err != nil {
		log.Fatal(err)
	}
	repl := scaleout.NewReplica(st, leaderURL, client, syncInterval)
	srv, err := server.NewLiveCluster(nil, server.ClusterConfig{Replica: repl})
	if err != nil {
		log.Fatal(err)
	}
	// The pull loop runs on its own context so it keeps serving sync
	// state while the HTTP server drains, and stops in postDrain.
	replCtx, replCancel := context.WithCancel(context.Background())
	go repl.Run(replCtx)
	fmt.Fprintf(os.Stderr, "replica mode: leader %s, %d shards, sync interval %v\n",
		leaderURL, info.Shards, syncInterval)
	return srv, st.Close, replCancel
}

// buildCoordinator serves /api/query by scatter-gather over the given
// replicas; it holds no local data. The returned postDrain stops the
// status poller after in-flight fan-outs have drained.
func buildCoordinator(replicaList string, timeout, hedgeAfter time.Duration) (http.Handler, func()) {
	var urls []string
	for _, u := range strings.Split(replicaList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	coord, err := scaleout.NewCoordinator(scaleout.CoordinatorConfig{
		Replicas:   urls,
		Timeout:    timeout,
		HedgeAfter: hedgeAfter,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.NewCoordinator(coord)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "coordinator mode: %d replicas, hedge after %v, per-replica timeout %v\n",
		len(urls), hedgeAfter, timeout)
	return srv, coord.Close
}
