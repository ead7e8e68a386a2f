// Command vpatch-match is a miniature IDS matching engine: it compiles a
// rule or pattern file and scans an input file (or stdin) with any of the
// library's algorithms, reporting every match.
//
// Usage:
//
//	vpatch-match -rules web.rules -in capture.bin
//	vpatch-match -patterns strings.txt -algo spatch -count -in big.log
//	vpatch-match -db web.vpdb -in capture.bin
//	cat stream | vpatch-match -rules web.rules -stream
//
// -rules parses Snort-style rules (content/nocase/hex escapes); -patterns
// reads one literal string per line; -db loads a precompiled database
// written by vpatch-compile instead of compiling at startup (the -algo
// and -width flags are then taken from the database). -stream scans
// stdin in 64 KB chunks through the StreamScanner (matches may span
// chunk boundaries).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vpatch"
	"vpatch/internal/patterns"
)

func main() {
	rulesPath := flag.String("rules", "", "Snort-style rules file")
	patsPath := flag.String("patterns", "", "plain pattern file, one literal per line")
	dbPath := flag.String("db", "", "precompiled .vpdb database (instead of -rules/-patterns)")
	inPath := flag.String("in", "", "input file (default stdin)")
	algoName := flag.String("algo", "vpatch", "algorithm: vpatch spatch dfc vectordfc ac")
	width := flag.Int("width", 8, "vector width for vectorized algorithms (4, 8, 16)")
	countOnly := flag.Bool("count", false, "print only the match count and throughput")
	stream := flag.Bool("stream", false, "scan stdin/file as a stream in 64 KB chunks")
	maxPrint := flag.Int("max-print", 20, "print at most this many matches (0 = all)")
	flag.Parse()

	var eng *vpatch.Engine
	if *dbPath != "" {
		if *rulesPath != "" || *patsPath != "" {
			fatal(fmt.Errorf("use either -db or -rules/-patterns, not both"))
		}
		start := time.Now()
		f, err := os.Open(*dbPath)
		if err != nil {
			fatal(err)
		}
		eng, err = vpatch.ReadFrom(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d patterns for %s in %s\n",
			eng.Set().Len(), eng.Algorithm(), time.Since(start).Round(time.Microsecond))
	} else {
		set, err := patterns.LoadSetFile(*rulesPath, *patsPath)
		if err != nil {
			fatal(err)
		}
		if set.Len() == 0 {
			fatal(fmt.Errorf("no patterns loaded (use -rules, -patterns or -db)"))
		}
		alg, err := vpatch.ParseAlgorithm(*algoName)
		if err != nil {
			fatal(err)
		}
		eng, err = vpatch.Compile(set, vpatch.Options{Algorithm: alg, VectorWidth: *width})
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "compiled %d patterns for %s\n", set.Len(), alg)
	}
	set := eng.Set()
	m := eng.NewSession()

	var in io.Reader = os.Stdin
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	printed := 0
	reportAt := func(pos int64, id int32) {
		if *countOnly {
			return
		}
		if *maxPrint > 0 && printed >= *maxPrint {
			return
		}
		printed++
		p := set.Pattern(id)
		fmt.Printf("offset %10d  pattern %5d  %q\n", pos, id, truncate(p.Data, 40))
	}
	report := func(mm vpatch.Match) { reportAt(int64(mm.Pos), mm.PatternID) }
	reportStream := func(mm vpatch.StreamMatch) { reportAt(mm.Pos, mm.PatternID) }

	start := time.Now()
	var scanned int64
	var total uint64
	if *stream {
		// Session-backed scanner: stream offsets are 64-bit, so matches
		// past 2 GiB of stdin report correct positions.
		s, err := m.NewStreamScanner(func(mm vpatch.StreamMatch) {
			total++
			reportStream(mm)
		})
		if err != nil {
			fatal(err)
		}
		buf := make([]byte, 64<<10)
		for {
			n, err := in.Read(buf)
			if n > 0 {
				if _, werr := s.Write(buf[:n]); werr != nil {
					fatal(werr)
				}
				scanned += int64(n)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				fatal(err)
			}
		}
	} else {
		data, err := io.ReadAll(in)
		if err != nil {
			fatal(err)
		}
		scanned = int64(len(data))
		m.Scan(data, nil, func(mm vpatch.Match) { total++; report(mm) })
	}
	elapsed := time.Since(start)
	gbps := float64(scanned) * 8 / float64(elapsed.Nanoseconds())
	fmt.Fprintf(os.Stderr, "%d matches in %d bytes (%.3f Gbps, %s)\n",
		total, scanned, gbps, elapsed.Round(time.Millisecond))
	if *countOnly {
		fmt.Println(total)
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vpatch-match:", err)
	os.Exit(1)
}
