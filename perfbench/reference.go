package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"

	"gcbench"
)

// reference holds the output digests recorded with the benchmark: one
// per campaign spec ID, or one per serve-mixed catalog request.
type reference struct {
	Workload string            `json:"workload"`
	PlanSeed uint64            `json:"planSeed,omitempty"`
	Digests  map[string]string `json:"digests"`

	mu      sync.Mutex
	record  bool
	perturb bool // flip the first digest checked (self-test of the check)
}

// loadReference reads a workload's reference, recorded for plan seed
// seed (0 where the workload has no plan), or starts an empty one in
// record mode.
func loadReference(e *env, workload string, seed uint64) (*reference, error) {
	r := &reference{Workload: workload, PlanSeed: seed, Digests: map[string]string{}, record: e.record, perturb: e.perturb}
	if e.record {
		return r, nil
	}
	b, err := os.ReadFile(e.refPath(workload))
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("parsing reference %s: %w", e.refPath(workload), err)
	}
	if r.PlanSeed != seed {
		return nil, fmt.Errorf("reference %s was recorded for plan seed %d, not %d", e.refPath(workload), r.PlanSeed, seed)
	}
	return r, nil
}

// check compares (or, in record mode, stores) the digest of one output
// of the given kind and reports a mismatch into p.
func (r *reference) check(p *passResult, kind, id, got string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p.checked[kind]++
	if r.record {
		r.Digests[id] = got
		return
	}
	want, ok := r.Digests[id]
	if r.perturb {
		want = flipDigest(want)
		r.perturb = false
	}
	switch {
	case !ok:
		p.mismatchf("%s: no reference digest", id)
	case want != got:
		p.mismatchf("%s: digest %s, reference %s", id, short(got), short(want))
	}
}

// save writes a recorded reference.
func (r *reference) save(e *env) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.refPath(r.Workload), append(b, '\n'), 0o644)
}

func flipDigest(d string) string {
	if d == "" {
		return "0"
	}
	last := byte('0')
	if d[len(d)-1] == '0' {
		last = '1'
	}
	return d[:len(d)-1] + string(last)
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// Behavior-vector dimensions (gcbench.Vector is <UPDT, WORK, EREAD, MSG>).
const (
	dimUPDT  = 0
	dimEREAD = 2
	dimMSG   = 3
)

// runDigest hashes the deterministic outputs of one campaign run: the
// raw UPDT, EREAD and MSG values, the iteration count and the active
// fraction series, bit for bit. WORK is apply time and is left out.
func runDigest(r *gcbench.Run) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, d := range []int{dimUPDT, dimEREAD, dimMSG} {
		put(math.Float64bits(r.Raw[d]))
	}
	put(uint64(r.Iterations))
	put(uint64(len(r.ActiveFraction)))
	for _, a := range r.ActiveFraction {
		put(math.Float64bits(a))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bodyDigest hashes an HTTP response's status and body.
func bodyDigest(status int, body []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", status)
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}
