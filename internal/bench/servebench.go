package bench

// The serve bench measures the multi-tenant service mode's throughput
// axis: streams/sec at N concurrent tenants against one in-process server.
// Every tenant submits the same deterministic chain workload, so all
// tenants after the first ride the shared compiled-plan cache — the rows
// prove both the sharing (plan-cache hits > 0) and the multiplexing win
// (aggregate throughput rising with tenant count past 1).

import (
	"fmt"
	"io"
	"sync"
	"time"

	"diffuse/internal/serve"
	"diffuse/internal/serve/serveclient"
)

// ServePoint is one measured (tenant count, throughput) sample.
type ServePoint struct {
	Tenants int
	// Streams is the number of submissions measured per tenant.
	Streams int
	// NsPerStream is wall-clock over all tenants divided by total streams.
	NsPerStream float64
	// StreamsPerSec is the aggregate throughput across tenants.
	StreamsPerSec float64
	// PlanHits / PlanMisses aggregate the per-tenant shared-plan-cache
	// counters over the run.
	PlanHits, PlanMisses int64
}

// serveBenchReps is how many times each (tenant count) point is measured;
// the best rep is reported. Serve points are short wall-clock windows
// (tens of milliseconds), so a single descheduling event can swing a rep
// by more than the real tenant-count effect — best-of-N reports the run
// the OS scheduler interfered with least, which is the standard cure for
// throughput microbenchmarks.
const serveBenchReps = 5

// RunServeBench measures streams/sec at each tenant count. Each point
// spins up a fresh server (unix socket, GlobalInflight slots), connects
// `tenants` clients as distinct tenants, and has each submit `streams`
// identical workload requests back to back; the wall clock spans first
// submission to last response across all tenants. Each point is measured
// serveBenchReps times and the best throughput is kept.
func RunServeBench(tenantCounts []int, streams int, req serve.SubmitRequest, procs int, w io.Writer) ([]ServePoint, error) {
	var points []ServePoint
	for _, tenants := range tenantCounts {
		p, err := bestServePoint(tenants, streams, req, procs)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
		fmt.Fprintf(w, "serve %-10s n=%-6d tenants=%-3d streams=%-3d %10.0f ns/stream %8.1f streams/s  plan hits/misses %d/%d\n",
			req.Workload, req.N, p.Tenants, p.Streams, p.NsPerStream, p.StreamsPerSec, p.PlanHits, p.PlanMisses)
	}
	return points, nil
}

// bestServePoint measures one tenant count serveBenchReps times and keeps
// the rep with the best throughput.
func bestServePoint(tenants, streams int, req serve.SubmitRequest, procs int) (ServePoint, error) {
	var p ServePoint
	for rep := 0; rep < serveBenchReps; rep++ {
		rp, err := serveBenchPoint(tenants, streams, req, procs)
		if err != nil {
			return ServePoint{}, err
		}
		if rep == 0 || rp.StreamsPerSec > p.StreamsPerSec {
			p = rp
		}
	}
	return p, nil
}

func serveBenchPoint(tenants, streams int, req serve.SubmitRequest, procs int) (ServePoint, error) {
	srv, err := serve.New(serve.Config{
		Procs:          procs,
		TenantInflight: 1,
		GlobalInflight: 4,
		QueueDepth:     streams + 1,
	})
	if err != nil {
		return ServePoint{}, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	defer func() {
		srv.Close()
		<-serveDone
	}()

	// Dial and warm up (one submission per tenant: compilation, memo
	// population, and window growth are steady-state costs for a
	// long-running server, not part of the throughput axis).
	clients := make([]*serveclient.Client, tenants)
	for i := range clients {
		c, err := serveclient.Dial(srv.Transport(), srv.Addr(), fmt.Sprintf("tenant-%d", i))
		if err != nil {
			return ServePoint{}, err
		}
		defer c.Close()
		if _, err := c.Submit(req); err != nil {
			return ServePoint{}, fmt.Errorf("bench: serve warmup (tenant %d): %w", i, err)
		}
		clients[i] = c
	}

	start := make(chan struct{})
	errs := make(chan error, tenants)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *serveclient.Client) {
			defer wg.Done()
			<-start
			for k := 0; k < streams; k++ {
				if _, err := c.Submit(req); err != nil {
					errs <- fmt.Errorf("bench: serve tenant %d stream %d: %w", i, k, err)
					return
				}
			}
		}(i, c)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	dt := time.Since(t0)
	close(errs)
	for err := range errs {
		return ServePoint{}, err
	}

	snap := srv.Stats()
	p := ServePoint{
		Tenants:       tenants,
		Streams:       streams,
		NsPerStream:   float64(dt.Nanoseconds()) / float64(tenants*streams),
		StreamsPerSec: float64(tenants*streams) / dt.Seconds(),
	}
	for _, ts := range snap.Tenants {
		p.PlanHits += ts.PlanHits
		p.PlanMisses += ts.PlanMisses
	}
	return p, nil
}
