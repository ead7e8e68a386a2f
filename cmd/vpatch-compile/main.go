// Command vpatch-compile is the offline rule compiler: it reads a rule
// or pattern file, compiles it once, and writes a versioned,
// checksummed .vpdb database that vpatch-match, vpatch-ids and
// vpatch-bench (and any program using vpatch.ReadFrom / ids.ReadDB)
// load at startup without parsing rule text again — the way production
// NIDS deploy Snort-scale rule sets.
//
// Usage:
//
//	vpatch-compile -rules web.rules -o web.vpdb
//	vpatch-compile -rules web.rules -algo ac -o web-ac.vpdb
//	vpatch-compile -rules all.rules -ids -o all-groups.vpdb
//	vpatch-compile -patterns strings.txt -algo spatch -o strings.vpdb
//
// The default output is a single-engine database. -ids instead
// compiles the whole per-protocol rule-group database the ids pipeline
// uses (one engine per protocol group plus the generic group, with
// original-rule ID mappings), in one file.
//
// -rule-semantics (with -ids) compiles the full rule tier instead of
// literal extraction: every content keeps its offset/depth/distance/
// within modifiers, nocase contents fold into shared prefilter
// literals, and pcre tails compile into the anchored regex verifier.
// The resulting database makes vpatch-ids and vpatch-serve emit
// rule-level alerts (see the README's "Rule language" section).
//
// After writing, the tool reloads the database and verifies it decodes
// cleanly, printing the compile and load times.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vpatch"
	"vpatch/ids"
	"vpatch/internal/patterns"
)

func main() {
	rulesPath := flag.String("rules", "", "Snort-style rules file")
	patsPath := flag.String("patterns", "", "plain pattern file, one literal per line")
	outPath := flag.String("o", "", "output database file (required)")
	algoName := flag.String("algo", "vpatch", "algorithm: vpatch spatch dfc vectordfc ac")
	width := flag.Int("width", 8, "vector width for vectorized algorithms (4, 8, 16)")
	idsMode := flag.Bool("ids", false, "compile the per-protocol rule-group database for the ids pipeline")
	ruleSem := flag.Bool("rule-semantics", false, "compile full rule semantics (offsets, nocase, pcre verifier) instead of bare literals; implies -ids")
	window := flag.Int("window", 0, "pcre verifier window in bytes for -rule-semantics (0 = default)")
	flag.Parse()

	if *outPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	alg, err := vpatch.ParseAlgorithm(*algoName)
	if err != nil {
		fatal(err)
	}
	opt := vpatch.Options{Algorithm: alg, VectorWidth: *width}

	if *ruleSem {
		if *rulesPath == "" {
			fatal(fmt.Errorf("-rule-semantics needs -rules (pattern files carry no rule options)"))
		}
		compileRuleIDS(*rulesPath, opt, *window, *outPath)
		return
	}
	set, err := patterns.LoadSetFile(*rulesPath, *patsPath)
	if err != nil {
		fatal(err)
	}
	if set.Len() == 0 {
		fatal(fmt.Errorf("no patterns loaded (use -rules or -patterns)"))
	}
	if *idsMode {
		compileIDS(set, opt, *outPath)
		return
	}
	compileEngine(set, opt, *outPath)
}

// compileEngine builds and writes a single-engine database.
func compileEngine(set *vpatch.PatternSet, opt vpatch.Options, outPath string) {
	t0 := time.Now()
	eng, err := vpatch.Compile(set, opt)
	if err != nil {
		fatal(err)
	}
	compileTime := time.Since(t0)

	blob := eng.Serialize()
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		fatal(err)
	}

	fmt.Printf("compiled %s in %s\n", eng.Info(), round(compileTime))
	fmt.Printf("wrote    %s (%d bytes)\n", outPath, len(blob))
	verify(blob)
}

// compileIDS builds and writes the whole per-protocol rule-group
// database.
func compileIDS(set *vpatch.PatternSet, opt vpatch.Options, outPath string) {
	t0 := time.Now()
	engine, err := ids.NewEngine(set, opt, nil)
	if err != nil {
		fatal(err)
	}
	compileTime := time.Since(t0)

	blob := engine.SerializeDB()
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		fatal(err)
	}

	fmt.Printf("compiled %d rules into %d groups (%s) in %s:\n",
		set.Len(), len(engine.GroupSizes()), opt.Algorithm, round(compileTime))
	sizes := engine.GroupSizes()
	for _, proto := range []vpatch.Protocol{
		vpatch.ProtoGeneric, vpatch.ProtoHTTP, vpatch.ProtoDNS, vpatch.ProtoFTP, vpatch.ProtoSMTP,
	} {
		if n, ok := sizes[proto]; ok {
			fmt.Printf("  %-8s %6d patterns\n", proto, n)
		}
	}
	fmt.Printf("wrote    %s (%d bytes)\n", outPath, len(blob))

	t0 = time.Now()
	if _, err := ids.LoadDB(blob, nil); err != nil {
		fatal(fmt.Errorf("verification reload failed: %w", err))
	}
	fmt.Printf("verified reload in %s\n", round(time.Since(t0)))
}

// compileRuleIDS parses the rules file with full rule semantics and
// writes the rule-tier ids database (pattern set + rule section +
// per-protocol prefilter groups).
func compileRuleIDS(rulesPath string, opt vpatch.Options, window int, outPath string) {
	f, err := os.Open(rulesPath)
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	rset, err := vpatch.ParseRuleSet(f, vpatch.RuleParseOptions{Window: int64(window)})
	f.Close()
	if err != nil {
		fatal(err)
	}
	engine, err := ids.NewRuleEngine(rset, opt, nil)
	if err != nil {
		fatal(err)
	}
	compileTime := time.Since(t0)

	blob := engine.SerializeDB()
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		fatal(err)
	}

	nRegex := 0
	for _, r := range rset.Rules {
		if r.Regex != nil {
			nRegex++
		}
	}
	fmt.Printf("compiled %d rules (%d with pcre verifier) over %d prefilter literals in %d groups (%s) in %s:\n",
		len(rset.Rules), nRegex, rset.Lits.Len(), len(engine.GroupSizes()), opt.Algorithm, round(compileTime))
	sizes := engine.GroupSizes()
	for _, proto := range []vpatch.Protocol{
		vpatch.ProtoGeneric, vpatch.ProtoHTTP, vpatch.ProtoDNS, vpatch.ProtoFTP, vpatch.ProtoSMTP,
	} {
		if n, ok := sizes[proto]; ok {
			fmt.Printf("  %-8s %6d literals\n", proto, n)
		}
	}
	fmt.Printf("wrote    %s (%d bytes)\n", outPath, len(blob))

	t0 = time.Now()
	reloaded, err := ids.LoadDB(blob, nil)
	if err != nil {
		fatal(fmt.Errorf("verification reload failed: %w", err))
	}
	if reloaded.Rules() == nil {
		fatal(fmt.Errorf("verification reload lost the rule section"))
	}
	fmt.Printf("verified reload in %s\n", round(time.Since(t0)))
}

// verify reloads a single-engine blob and reports load time.
func verify(blob []byte) {
	t0 := time.Now()
	if _, err := vpatch.Deserialize(blob); err != nil {
		fatal(fmt.Errorf("verification reload failed: %w", err))
	}
	fmt.Printf("verified reload in %s\n", round(time.Since(t0)))
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpatch-compile:", err)
	os.Exit(1)
}
