package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// get fetches a URL and returns the body, failing the test on any error.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// sampleRegistry returns a registry with one rank carrying a little
// activity, so snapshots and reports are non-degenerate.
func sampleRegistry(stepNs int64) *Registry {
	reg := NewRegistry()
	c := reg.Rank(0)
	sp := c.Begin(PhaseNonlinear)
	sp.End()
	c.AddComm(CommYtoZ, 1024, 3)
	c.StepDone(time.Duration(stepNs))
	return reg
}

func handlerFor(reg *Registry) (h *httptest.Server, close func()) {
	srv := httptest.NewServer(HandlerWithIdentity(func() *Report {
		return NewReport("dns", reg, map[string]string{"test": "1"})
	}, Identity{}))
	return srv, srv.Close
}

// TestTelemetryEndpointCanonical: /telemetry must return canonical JSON
// that parses and validates as a channeldns/bench/v2 report.
func TestTelemetryEndpointCanonical(t *testing.T) {
	srv, done := handlerFor(sampleRegistry(1e6))
	defer done()
	rr := get(t, srv.URL+"/telemetry")
	rep, err := ValidateJSON(rr)
	if err != nil {
		t.Fatalf("/telemetry body invalid: %v", err)
	}
	if rep.Table != "dns" || rep.Ranks != 1 {
		t.Errorf("report %+v", rep)
	}
}

// TestHandlerNeverBlocksRecording: the endpoint must serve while steps are
// advancing — snapshots read atomic counters and never take locks held
// across recording.
func TestHandlerNeverBlocksRecording(t *testing.T) {
	reg := sampleRegistry(1e6)
	srv, done := handlerFor(reg)
	defer done()
	c := reg.Rank(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sp := c.Begin(PhaseTransposeAB)
			sp.End()
			c.StepDone(time.Microsecond)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 20; i++ {
		if time.Now().After(deadline) {
			t.Fatal("handler requests did not complete while a step was advancing")
		}
		if _, err := ValidateJSON(get(t, srv.URL+"/telemetry")); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestServeHandler(t *testing.T) {
	reg := sampleRegistry(1e6)
	addr, err := ServeHandler("127.0.0.1:0", HandlerWithIdentity(func() *Report {
		return NewReport("dns", reg, nil)
	}, Identity{}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(addr, ":") {
		t.Fatalf("bound address %q", addr)
	}
	if _, err := ValidateJSON(get(t, "http://"+addr+"/telemetry")); err != nil {
		t.Errorf("ServeHandler endpoint: %v", err)
	}
}
