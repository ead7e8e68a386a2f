// Command vpatch-serve runs the resident multi-tenant scanning daemon:
// an HTTP/JSON API (one-shot scans, segment streaming, tenant and rule
// management, Prometheus /metrics) plus an optional raw-TCP segment
// ingest port, in front of per-tenant ids pipelines.
//
// Usage:
//
//	vpatch-serve -db all-groups.vpdb
//	vpatch-serve -rules web.rules -algo dfc -listen :8080 -ingest :4789
//	vpatch-serve -db rules.vpdb -shards 4 -quota-bps 104857600
//
// The initial database loads into the "default" tenant. Further tenants
// are created over the API (PUT /v1/tenants/{id}) and rule databases
// hot-swap with zero downtime (POST /v1/tenants/{id}/rules): segments
// queued before the swap are scanned under the old rules, later ones
// under the new, and live flows keep their reassembly state across it.
//
// Rule-conditioned databases (vpatch-compile -rule-semantics, or
// -rules with -rule-semantics here) make alerts report completed rules
// instead of raw literal hits. Every alert — rule or literal — streams
// on GET /v1/alerts (?follow=1 for a live tail) and, with -alerts-out,
// appends to a JSONL file.
//
// Overload behavior: ingest batches are scheduled deficit-round-robin
// across tenants (one tenant's flood cannot starve another's lane),
// per-flow verifier budgets degrade match-flood flows to literal-only
// alerting (-verifier-flow-budget; armed by default), and idle or
// stalled ingest connections are torn down (-ingest-idle-timeout). See
// the README's "Failure modes & overload behavior" section.
//
// Signals:
//
//	SIGHUP           re-read -db (or -rules) and hot-swap the default tenant
//	SIGINT, SIGTERM  graceful drain: stop accepting, flush every shard,
//	                 print the residual report, exit 0 (1 on dirty drain)
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/patterns"
	"vpatch/internal/resil"
	"vpatch/internal/serve"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	ingest := flag.String("ingest", "", "raw-TCP segment ingest listen address (empty = disabled)")
	dbPath := flag.String("db", "", "initial .vpdb rule database for the default tenant")
	rulesPath := flag.String("rules", "", "Snort-style rules file to compile for the default tenant (instead of -db)")
	algoName := flag.String("algo", "vpatch", "matching engine for -rules: vpatch spatch dfc vectordfc ac")
	shards := flag.Int("shards", 2, "default worker shards per tenant")
	maxFlows := flag.Int("max-flows", 1<<20, "default per-shard cap on tracked flows (0 = unlimited)")
	flowTimeout := flag.Duration("flow-timeout", 60*time.Second, "default flow idle eviction timeout on the capture clock (0 = never)")
	flowPending := flag.Int("flow-pending", 256<<10, "default per-flow out-of-order byte budget (0 = unlimited)")
	totalPending := flag.Int("total-pending", 64<<20, "default per-shard out-of-order byte budget (0 = unlimited)")
	quotaBps := flag.Int64("quota-bps", 0, "default per-tenant ingest byte quota per second (0 = unlimited)")
	quotaBurst := flag.Int64("quota-burst", 0, "default quota burst bytes (0 = one second of quota)")
	verifierBudget := flag.Int64("verifier-flow-budget", resil.DefaultFlowBudget, "default per-flow verifier budget in modeled cycles; match-flood flows degrade to literal-only past it (negative = unlimited)")
	verifierBudgetPS := flag.Int64("verifier-budget-per-sec", 0, "default per-tenant verifier cycle pool refill per second (0 = no tenant pool)")
	ingestIdle := flag.Duration("ingest-idle-timeout", 5*time.Minute, "tear down raw-TCP ingest connections idle past this (negative = never)")
	queueBytes := flag.Int("ingest-queue-bytes", 0, "per-tenant ingest scheduler queue bound in bytes (0 = default)")
	quantumBytes := flag.Int("sched-quantum-bytes", 0, "deficit-round-robin byte quantum per tenant visit (0 = default)")
	alertsOut := flag.String("alerts-out", "", `append every alert as a JSON line to this file ("-" = stdout); same records as GET /v1/alerts`)
	ruleSem := flag.Bool("rule-semantics", false, "compile -rules with full rule semantics (offsets, nocase, pcre verifier)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
	check := flag.String("check", "", "health-probe mode: GET this URL, exit 0 on 200 (container HEALTHCHECK helper)")
	flag.Parse()
	if *check != "" {
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get(*check)
		if err != nil {
			fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatal(fmt.Errorf("probe %s: %s", *check, resp.Status))
		}
		return
	}
	if *dbPath != "" && *rulesPath != "" {
		fmt.Fprintln(os.Stderr, "vpatch-serve: use -db or -rules, not both")
		os.Exit(2)
	}

	srv := serve.New(serve.Config{
		TenantDefaults: serve.TenantConfig{
			Shards:               *shards,
			MaxFlows:             *maxFlows,
			FlowTimeout:          *flowTimeout,
			FlowPendingBytes:     *flowPending,
			TotalPendingBytes:    *totalPending,
			QuotaBytesPerSec:     *quotaBps,
			QuotaBurstBytes:      *quotaBurst,
			VerifierFlowBudget:   *verifierBudget,
			VerifierBudgetPerSec: *verifierBudgetPS,
		},
		IngestIdleTimeout: *ingestIdle,
		SchedQuantumBytes: *quantumBytes,
		IngestQueueBytes:  *queueBytes,
	})
	def, err := srv.CreateTenant(serve.DefaultTenant, serve.TenantConfig{})
	if err != nil {
		fatal(err)
	}
	if *alertsOut != "" {
		out := os.Stdout
		if *alertsOut != "-" {
			f, err := os.OpenFile(*alertsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(err)
			}
			out = f
		}
		ch, cancel := srv.SubscribeAlerts()
		defer cancel()
		go func() {
			w := bufio.NewWriter(out)
			enc := json.NewEncoder(w)
			for rec := range ch {
				enc.Encode(rec)
				if len(ch) == 0 {
					w.Flush()
				}
			}
		}()
	}

	reload := func() error {
		db, err := loadRuleBlob(*dbPath, *rulesPath, *algoName, *ruleSem)
		if err != nil {
			return err
		}
		if db == nil {
			return nil // no initial rules: the API will provide them
		}
		gen, err := def.Reload(db)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "vpatch-serve: default tenant now at generation %d (kernel %s)\n",
			gen, vpatch.ActiveKernel())
		return nil
	}
	if err := reload(); err != nil {
		fatal(err)
	}

	httpLn, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(httpLn) }()
	fmt.Fprintf(os.Stderr, "vpatch-serve: HTTP on %s\n", httpLn.Addr())

	ingestErr := make(chan error, 1)
	if *ingest != "" {
		ln, err := net.Listen("tcp", *ingest)
		if err != nil {
			fatal(err)
		}
		go func() { ingestErr <- srv.ServeIngest(ln) }()
		fmt.Fprintf(os.Stderr, "vpatch-serve: ingest on %s\n", ln.Addr())
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case err := <-httpErr:
			fatal(fmt.Errorf("http server: %w", err))
		case err := <-ingestErr:
			if err != nil {
				fatal(fmt.Errorf("ingest server: %w", err))
			}
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				if err := reload(); err != nil {
					fmt.Fprintf(os.Stderr, "vpatch-serve: reload failed, keeping current rules: %v\n", err)
				}
				continue
			}
			fmt.Fprintf(os.Stderr, "vpatch-serve: %v, draining (deadline %s)\n", sig, *drainTimeout)
			rep := srv.Drain(*drainTimeout)
			hs.Close()
			out, _ := json.MarshalIndent(rep, "", "  ")
			fmt.Fprintf(os.Stderr, "%s\n", out)
			if !rep.Clean {
				os.Exit(1)
			}
			return
		}
	}
}

// loadRuleBlob produces the serialized .vpdb blob for the startup (and
// SIGHUP) rules: either the -db file verbatim, or -rules compiled in
// process (with full rule semantics when ruleSem is set) and
// round-tripped through the database encoder so reload validation sees
// the same bytes either way. Returns nil when neither flag is set.
func loadRuleBlob(dbPath, rulesPath, algoName string, ruleSem bool) ([]byte, error) {
	if dbPath != "" {
		return os.ReadFile(dbPath)
	}
	if rulesPath == "" {
		return nil, nil
	}
	rf, err := os.Open(rulesPath)
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	alg, err := vpatch.ParseAlgorithm(algoName)
	if err != nil {
		return nil, err
	}
	opt := vpatch.Options{Algorithm: alg}
	var eng *ids.Engine
	if ruleSem {
		rset, err := vpatch.ParseRuleSet(rf, vpatch.RuleParseOptions{})
		if err != nil {
			return nil, err
		}
		eng, err = ids.NewRuleEngine(rset, opt, nil)
		if err != nil {
			return nil, err
		}
	} else {
		set, err := patterns.ParseRules(rf, patterns.ParseOptions{})
		if err != nil {
			return nil, err
		}
		eng, err = ids.NewEngine(set, opt, nil)
		if err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	if _, err := eng.WriteDB(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpatch-serve:", err)
	os.Exit(1)
}
