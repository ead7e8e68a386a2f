package experiments

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"vpatch/internal/core"
	"vpatch/internal/metrics"
	"vpatch/internal/patterns"
	"vpatch/internal/traffic"
)

// The packet-size sweep: serial per-packet V-PATCH scans versus one
// ScanBatch call per batch of the same packets, across packet sizes.
// This is the experiment behind the batch scan path — the paper's
// Fig. 5b shows V-PATCH's filtering round degrading on small inputs
// (sub-register tails, per-call setup, empty lanes), and real NIDS
// traffic is overwhelmingly small packets. The sweep reports wall-clock
// throughput of both modes plus the serial scan's vector coverage
// (fraction of positions filtered in full W-lane blocks — collapses as
// packets shrink).

// BatchSweepRow is one packet size of the sweep.
type BatchSweepRow struct {
	// Label names the row ("64", "IMIX", ...); PacketBytes is the fixed
	// packet size, or 0 for the IMIX mix.
	Label       string `json:"label"`
	PacketBytes int    `json:"packet_bytes"`
	Packets     int    `json:"packets"`
	Batch       int    `json:"batch"` // buffers per ScanBatch call

	SerialGbps float64 `json:"serial_gbps"`
	BatchGbps  float64 `json:"batch_gbps"`
	Speedup    float64 `json:"speedup"` // batch over serial, wall-clock

	// SerialVectorCoverage is VectorIters*W/BytesScanned of the serial
	// per-packet scans: the fraction of positions the serial filtering
	// round handles in full vector blocks rather than scalar tail.
	SerialVectorCoverage float64 `json:"serial_vector_coverage"`
}

// BatchSweep measures serial vs batched V-PATCH over packets of each
// given size (size 0 = the SimpleIMIX mix), batch buffers per ScanBatch
// call, at vector width `width` (0 = 8).
func BatchSweep(cfg Config, set *patterns.Set, sizes []int, batch, width int) []BatchSweepRow {
	cfg = cfg.withDefaults()
	if batch <= 0 {
		batch = 32
	}
	if width == 0 {
		width = 8
	}
	vp := core.NewVPatch(set, core.VOptions{Width: width})

	rows := make([]BatchSweepRow, 0, len(sizes))
	for _, size := range sizes {
		var pkts [][]byte
		row := BatchSweepRow{PacketBytes: size, Batch: batch}
		if size == 0 {
			row.Label = "IMIX"
			n := cfg.TrafficBytes / int(traffic.MeanSize(traffic.SimpleIMIX))
			pkts = traffic.Packets(traffic.ISCXDay2, traffic.SimpleIMIX, n, cfg.Seed, set)
		} else {
			row.Label = strconv.Itoa(size)
			n := cfg.TrafficBytes / size
			if n < batch {
				n = batch
			}
			pkts = traffic.FixedPackets(traffic.ISCXDay2, size, n, cfg.Seed, set)
		}
		row.Packets = len(pkts)
		total := uint64(0)
		for _, p := range pkts {
			total += uint64(len(p))
		}

		// Wall clock, best of Repeats, un-instrumented (both modes take
		// their fused paths, as production scans would).
		for r := 0; r < cfg.Repeats; r++ {
			t0 := time.Now()
			for _, p := range pkts {
				vp.Scan(p, nil, nil)
			}
			if g := metrics.Throughput(total, time.Since(t0).Nanoseconds()); g > row.SerialGbps {
				row.SerialGbps = g
			}
			t0 = time.Now()
			for lo := 0; lo < len(pkts); lo += batch {
				hi := lo + batch
				if hi > len(pkts) {
					hi = len(pkts)
				}
				vp.ScanBatch(pkts[lo:hi], nil, nil)
			}
			if g := metrics.Throughput(total, time.Since(t0).Nanoseconds()); g > row.BatchGbps {
				row.BatchGbps = g
			}
		}
		if row.SerialGbps > 0 {
			row.Speedup = row.BatchGbps / row.SerialGbps
		}

		// Vector coverage from a lane-exact run (vector-engine path).
		cs := metrics.Counters{LaneExact: true}
		for _, p := range pkts {
			vp.Scan(p, &cs, nil)
		}
		if cs.BytesScanned > 0 {
			row.SerialVectorCoverage = float64(cs.VectorIters) * float64(width) / float64(cs.BytesScanned)
		}

		rows = append(rows, row)
	}
	return rows
}

// PrintBatchSweep renders the sweep as an aligned table.
func PrintBatchSweep(w io.Writer, title string, rows []BatchSweepRow) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "  %8s %9s %7s %12s %12s %9s %14s\n",
		"pkt", "packets", "batch", "serial Gbps", "batch Gbps", "speedup", "serial vec cov")
	for _, r := range rows {
		fmt.Fprintf(w, "  %8s %9d %7d %12.3f %12.3f %8.2fx %14.3f\n",
			r.Label, r.Packets, r.Batch, r.SerialGbps, r.BatchGbps, r.Speedup,
			r.SerialVectorCoverage)
	}
}

// WriteBatchSweepCSV exports the sweep.
func WriteBatchSweepCSV(dir, name string, rows []BatchSweepRow) error {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Label, strconv.Itoa(r.Packets), strconv.Itoa(r.Batch),
			ftoa(r.SerialGbps), ftoa(r.BatchGbps), ftoa(r.Speedup),
			ftoa(r.SerialVectorCoverage),
		})
	}
	return writeCSV(dir, name,
		[]string{"packet", "packets", "batch", "serial_gbps", "batch_gbps", "speedup",
			"serial_vector_coverage"}, out)
}
