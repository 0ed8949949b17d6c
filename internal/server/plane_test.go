package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"image"
	"image/png"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestPlanePinned holds the live plane of a fixed small job to the pixels
// and extrema it rendered when recorded: the SHA-256 of the decoded gray
// pixels (decoded, so a different zlib cannot move the pin) and the bits of
// the frame's Min and Max. A renderer change that moves a pixel, the
// plane's height, the component or the scaling shows here.
func TestPlanePinned(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{})
	defer drainManager(t, m)
	job, err := m.Submit(JobSpec{Nx: 16, Ny: 17, Nz: 16, Dt: 1e-3, Steps: 4, PlaneEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, job, StateDone)
	raw, frame, ok := job.Plane()
	if !ok {
		t.Fatal("no plane rendered")
	}
	img, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	gray, ok := img.(*image.Gray)
	if !ok {
		t.Fatalf("plane decodes to %T, want *image.Gray", img)
	}
	sum := sha256.New()
	for y := 0; y < frame.H; y++ {
		sum.Write(gray.Pix[y*gray.Stride : y*gray.Stride+frame.W])
	}
	want := PlaneFrame{Step: 4, Comp: "u", Yi: 8, W: 24, H: 24,
		Min: math.Float64frombits(planePinMin), Max: math.Float64frombits(planePinMax)}
	if got := frame; got.Step != want.Step || got.Comp != want.Comp || got.Yi != want.Yi ||
		got.W != want.W || got.H != want.H || gray.Rect != image.Rect(0, 0, want.W, want.H) ||
		math.Float64bits(got.Min) != planePinMin || math.Float64bits(got.Max) != planePinMax {
		t.Errorf("frame %+v (bounds %v), want %+v", got, gray.Rect, want)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != planePinPixels {
		t.Errorf("pixel digest %s, want %s", got, planePinPixels)
	}
}

const (
	planePinPixels = "2984e5f4513f9cc1c7038983467fa7e92eb996e945e877fc1418e337b0fe5529"
	planePinMin    = 0x4056517e3173e6d7
	planePinMax    = 0x4056bea03f014bf7
)

// TestDivergedPlaneKeepsLastFinite: a single-rank 16x17x16 channel at
// dt = 0.005 blows up to NaN within 20 steps. plane.png and X-Plane-Step
// must still show the last finite frame, the one the last plane event
// announced, and no event may announce a step after it. A renderer that
// encodes NaNs serves a blank PNG of the final step instead, whose event
// the hub cannot marshal and drops.
func TestDivergedPlaneKeepsLastFinite(t *testing.T) {
	m := newTestManager(t, t.TempDir(), Options{})
	defer drainManager(t, m)
	ts := httptest.NewServer(NewAPI(m).Routes())
	defer ts.Close()
	const steps, every = 40, 2
	job, err := m.Submit(JobSpec{Nx: 16, Ny: 17, Nz: 16, Dt: 0.005, Steps: steps, PlaneEvery: every, StatusEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	events := make(chan []Event, 1)
	go func() {
		evs, _ := follow(job.Hub)
		events <- evs
	}()
	if st := waitState(t, job, StateDone); !strings.Contains(st.Line, "NaN") {
		t.Fatalf("final status %q: the run did not diverge, so this test checks nothing", st.Line)
	}
	var last PlaneFrame
	for _, ev := range <-events {
		if ev.Type != EventPlane {
			continue
		}
		var f PlaneFrame
		if err := json.Unmarshal(ev.Data, &f); err != nil {
			t.Fatal(err)
		}
		if f.Step != last.Step+every {
			t.Errorf("plane event for step %d follows step %d", f.Step, last.Step)
		}
		if math.IsNaN(f.Min) || math.IsNaN(f.Max) || math.IsInf(f.Min, 0) || math.IsInf(f.Max, 0) {
			t.Errorf("plane event for step %d has extrema %g, %g", f.Step, f.Min, f.Max)
		}
		last = f
	}
	if last.Step == 0 || last.Step >= steps {
		t.Fatalf("last plane event at step %d, want a finite frame before step %d", last.Step, steps)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + RunID(job.ID) + "/plane.png")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plane.png: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Plane-Step"); got != strconv.Itoa(last.Step) {
		t.Errorf("X-Plane-Step %s, want %d (the last finite frame)", got, last.Step)
	}
	img, err := png.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if b := img.Bounds(); b.Dx() != last.W || b.Dy() != last.H {
		t.Errorf("plane.png is %v, want %dx%d", b, last.W, last.H)
	}
}
