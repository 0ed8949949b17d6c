package server

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeSpec feeds the submit path whatever a client might POST: nothing
// between the body and the queue may panic, and a spec the server accepts
// must survive its own persistence — spec.json is json.Marshal of it, read
// back with decodeSpec by the next server instance.
func FuzzDecodeSpec(f *testing.F) {
	for _, body := range []string{
		`{"nx":16,"ny":24,"nz":16,"steps":4,"dt":0.001,"ckpt_every":2,"status_every":2,"plane_every":3}`,
		`{"workload":"scalar","nx":16,"ny":17,"nz":16,"steps":2,"pa":2,"pb":2,"threads":2,"prandtl":0.71,"form":"skew","trace":true}`,
		// Refused: the retired chunked-exchange knobs are unknown fields.
		`{"workload":"isotropic","nx":16,"ny":16,"nz":16,"steps":2,"ly":6.28,"target_cfl":0.8,"overlap":true,"pipeline_chunks":2}`,
		`{"nx":2,"ny":17,"nz":2,"steps":1}`,
		`{"nx":4,"ny":17,"nz":4,"steps":1,"pa":4,"pb":4}`,
		`{"nx":16,"ny":17,"nz":16,"steps":1,"pb":32}`,
		`{"nx":16,"ny":17,"nz":16,"steps":1,"pa":-3,"pb":-5,"ckpt_keep":-1,"seed":-9}`,
		`{"nx":9223372036854775806,"ny":9223372036854775807,"nz":9223372036854775806,"steps":1,"pa":4294967296,"pb":4294967296}`,
		`{"nx":16,"ny":17,"nz":16,"steps":1,"dt":1e-320,"re_tau":1e308,"perturb":-0}`,
		`{"nx":1e3,"ny":17,"nz":16,"steps":1}`,
		`{"nx":16,"ny":17,"nz":16,"steps":1,"ckpt_evry":2}`,
		`{"nx":16,"ny":17,"nz":16,"steps":1,"form":"rotational"}`,
		`{"nx":16,"ny":17,"nz":16,"steps":1} trailing`,
		`{"nx":16,"ny":17`,
		`[]`, `null`, ``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := decodeSpec(body)
		if err != nil {
			return
		}
		sp.withDefaults()
		sp.ConfigMap()
		sp.World()
		if sp.Validate() != nil {
			return
		}
		stored, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", sp, err)
		}
		if back, err := decodeSpec(stored); err != nil || back != sp {
			t.Fatalf("accepted spec changed through spec.json:\n was %+v\n got %+v (err %v)", sp, back, err)
		}
	})
}
