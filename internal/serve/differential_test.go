package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gcbench/internal/behavior"
	"gcbench/internal/corpus"
	"gcbench/internal/obs"
	"gcbench/internal/shard"
)

// clusterOverStandard builds a serve.Server whose corpus is the standard
// snapshot partitioned across a shards×replicas cluster. The cluster
// gets its own record copy — NewSnapshotFromRecords assigns keys in
// place, and the differential tests publish to the three deployments
// independently.
func clusterOverStandard(t testing.TB, shards, replicas int) *Server {
	t.Helper()
	standardStore(t) // ensure stdSnap is loaded
	records := append([]corpus.Record(nil), stdSnap.Records...)
	snap, err := corpus.NewSnapshotFromRecords(records, stdSnap.Source)
	if err != nil {
		t.Fatal(err)
	}
	c, err := shard.New(shard.Options{Shards: shards, Replicas: replicas, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(context.Background(), snap); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Cluster: c, Samples: 50_000, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// apiCall is one replayable request of the differential set.
type apiCall struct {
	name   string
	method string
	path   string
	body   string
}

func (c apiCall) issue(t testing.TB, s *Server) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	var r *http.Request
	if c.method == http.MethodPost && c.body != "" {
		r = httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
		r.Header.Set("Content-Type", "application/json")
	} else {
		r = httptest.NewRequest(c.method, c.path, nil)
	}
	s.Handler().ServeHTTP(w, r)
	return w
}

// differentialCalls is the request set the harness replays against every
// deployment shape: every read endpoint the bit-identity guarantee
// covers, across filters, methods and metrics.
func differentialCalls(t testing.TB) []apiCall {
	t.Helper()
	standardStore(t)
	calls := []apiCall{
		{name: "runs all", method: http.MethodGet, path: "/api/runs"},
		{name: "runs alg", method: http.MethodGet, path: "/api/runs?algorithm=PR"},
		{name: "runs multi", method: http.MethodGet, path: "/api/runs?algorithm=PR,CC&size=1e5"},
		{name: "runs status", method: http.MethodGet, path: "/api/runs?status=ok"},
		{name: "runs model gas", method: http.MethodGet, path: "/api/runs?model=gas"},
		{name: "runs model empty", method: http.MethodGet, path: "/api/runs?model=pregel"},
		{name: "predict", method: http.MethodGet, path: "/api/predict?algorithm=PR&edges=500000&alpha=2.1"},
		{name: "predict model", method: http.MethodGet, path: "/api/predict?algorithm=PR&edges=500000&alpha=2.1&model=gas"},
		{name: "predict 2", method: http.MethodGet, path: "/api/predict?algorithm=CC&edges=123456&alpha=1.9"},
		{name: "best spread", method: http.MethodGet, path: "/api/ensemble/best?n=5"},
		{name: "best coverage", method: http.MethodGet, path: "/api/ensemble/best?n=4&metric=coverage"},
		{name: "design greedy", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":3}`},
		{name: "design coverage", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":3,"metric":"coverage"}`},
		{name: "design exchange", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":4,"method":"exchange"}`},
		{name: "design anneal", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":4,"method":"anneal","seed":7}`},
		{name: "design beam", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":3,"method":"beam"}`},
		{name: "design pooled", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":2,"pool":{"algorithms":["PR","CC"]}}`},
		{name: "design model pool", method: http.MethodPost, path: "/api/ensemble/design", body: `{"n":2,"pool":{"models":["gas"]}}`},
	}
	// Single-record reads: a spread of record keys plus the first pool
	// member (which carries a poolBehavior fragment). Each is requested
	// twice so the cluster's fragment-cache hit path is byte-compared too.
	keys := []string{stdSnap.Records[0].Key, stdSnap.Records[len(stdSnap.Records)/2].Key}
	if stdSnap.PoolSize() > 0 {
		keys = append(keys, stdSnap.PoolRecord(0).Key)
	}
	for _, k := range keys {
		for pass := 1; pass <= 2; pass++ {
			calls = append(calls, apiCall{
				name:   fmt.Sprintf("behavior %s pass %d", k, pass),
				method: http.MethodGet,
				path:   "/api/behavior/" + k,
			})
		}
	}
	return calls
}

// firstDiff renders the context around the first differing byte.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := max(0, i-80)
			return fmt.Sprintf("first divergence at byte %d: ...%s...", i, a[lo:min(len(a), i+80)])
		}
	}
	return fmt.Sprintf("length mismatch: %d vs %d bytes", len(a), len(b))
}

// dominatedRuns builds a deterministic batch of appendable measured runs
// whose raw vectors stay strictly inside the corpus maxima, so a publish
// moves the version vector without moving the normalization regime.
func dominatedRuns(t testing.TB, n int) []*behavior.Run {
	t.Helper()
	standardStore(t)
	runs := make([]*behavior.Run, 0, n)
	for i := 0; i < n; i++ {
		var raw behavior.Vector
		for d := range raw {
			raw[d] = stdSnap.Pool.Max[d] * (0.05 + 0.01*float64(i))
		}
		runs = append(runs, &behavior.Run{
			Algorithm: "PR", Domain: "diff-test", SizeLabel: fmt.Sprintf("7e%d", i+1),
			Alpha: 2.05, NumEdges: int64(1000 * (i + 1)), Iterations: 4, Converged: true,
			ActiveFraction: []float64{1, 0.6, 0.3, 0.1},
			Raw:            raw,
		})
	}
	// One model-tagged run rides along: the append path, record keying and
	// model-filtered reads must behave identically across deployments.
	var raw behavior.Vector
	for d := range raw {
		raw[d] = stdSnap.Pool.Max[d] * 0.04
	}
	runs = append(runs, &behavior.Run{
		Algorithm: "PR", Model: "pregel", Domain: "diff-test", SizeLabel: "7m",
		Alpha: 2.05, NumEdges: 9000, Iterations: 4, Converged: true,
		ActiveFraction: []float64{1, 0.6, 0.3, 0.1},
		Raw:            raw,
	})
	return runs
}

// TestDifferentialShardedServe is the serving tier's central guarantee:
// the same request set answered by a single-store server (a 1×1
// cluster) and a 4-shard × 2-replica cluster matches the frozen
// single-store goldens byte for byte — before a hot publish, while
// concurrent readers race one, and after it settles.
func TestDifferentialShardedServe(t *testing.T) {
	single := newTestServer(t, nil)
	four := clusterOverStandard(t, 4, 2)
	deployments := map[string]*Server{"single-store": single, "cluster(4x2)": four}
	calls := differentialCalls(t)
	for name, s := range deployments {
		assertGolden(t, "initial", s, name, calls)
	}

	// Hot publish under concurrent reads: hammer the 4-shard cluster's
	// read endpoints while the same run batch is appended to both
	// deployments through the jobs publish sink. The race detector
	// validates the lock-free read path; every in-flight response must
	// still be a complete, consistent snapshot answer (HTTP 200).
	readCalls := []apiCall{
		{name: "runs", method: http.MethodGet, path: "/api/runs?algorithm=PR"},
		{name: "behavior", method: http.MethodGet, path: "/api/behavior/" + stdSnap.Records[0].Key},
		{name: "predict", method: http.MethodGet, path: "/api/predict?algorithm=PR&edges=500000&alpha=2.1"},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c := readCalls[(w+i)%len(readCalls)]
				if rec := c.issue(t, four); rec.Code != http.StatusOK {
					t.Errorf("during publish: %s returned %d: %s", c.name, rec.Code, rec.Body.String())
					return
				}
			}
		}(w)
	}
	runs := dominatedRuns(t, 3)
	for _, s := range deployments {
		if _, err := s.publishRuns("diff-job", runs); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Settled: replay the full set again, plus reads of the appended
	// records themselves (served via their owning shards); corpusVersion
	// advanced to 2 everywhere.
	for name, s := range deployments {
		assertGolden(t, "published", s, name, append(calls, appendedCalls()...))
	}
}

// diffGoldenDir holds the frozen reference bodies every deployment is
// compared against: one file per distinct body, named by a prefix of
// its SHA-256, plus index.json mapping phase → call name → file. The
// bodies were recorded from the standalone single-store server before
// that server became a 1×1 cluster, so they are an independent
// reference rather than the output of the code under test.
const diffGoldenDir = "testdata/differential"

// appendedCalls reads the records dominatedRuns publishes.
func appendedCalls() []apiCall {
	return []apiCall{
		{name: "appended behavior", method: http.MethodGet, path: "/api/behavior/" + corpus.KeyOf("PR", "7e1", 2.05)},
		{name: "appended model behavior", method: http.MethodGet, path: "/api/behavior/" + corpus.KeyOfModel("pregel", "PR", "7m", 2.05)},
		{name: "appended model runs", method: http.MethodGet, path: "/api/runs?model=pregel"},
		{name: "appended model predict", method: http.MethodGet, path: "/api/predict?algorithm=PR&edges=9000&alpha=2.05&model=pregel"},
	}
}

func loadGoldenIndex(t testing.TB) map[string]map[string]string {
	t.Helper()
	idx := map[string]map[string]string{}
	b, err := os.ReadFile(filepath.Join(diffGoldenDir, "index.json"))
	if err != nil {
		if *updateGolden && os.IsNotExist(err) {
			return idx
		}
		t.Fatalf("missing differential goldens: %v", err)
	}
	if err := json.Unmarshal(b, &idx); err != nil {
		t.Fatal(err)
	}
	return idx
}

// assertGolden replays calls against s and requires every body to equal
// the phase's frozen golden byte for byte. With -update it records s's
// bodies as the new goldens instead.
func assertGolden(t *testing.T, phase string, s *Server, deployment string, calls []apiCall) {
	t.Helper()
	idx := loadGoldenIndex(t)
	if *updateGolden {
		if err := os.MkdirAll(diffGoldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if idx[phase] == nil {
			idx[phase] = map[string]string{}
		}
	}
	for _, c := range calls {
		w := c.issue(t, s)
		if w.Code != http.StatusOK {
			t.Errorf("%s: %s: %s status %d: %s", phase, c.name, deployment, w.Code, w.Body.String())
			continue
		}
		if *updateGolden {
			sum := sha256.Sum256(w.Body.Bytes())
			name := hex.EncodeToString(sum[:8]) + ".json"
			if err := os.WriteFile(filepath.Join(diffGoldenDir, name), w.Body.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			idx[phase][c.name] = name
			continue
		}
		file, ok := idx[phase][c.name]
		if !ok {
			t.Fatalf("%s: %s: no golden recorded", phase, c.name)
		}
		want, err := os.ReadFile(filepath.Join(diffGoldenDir, file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, w.Body.Bytes()) {
			t.Errorf("%s: %s: %s body diverges from the single-store golden %s\ngolden: %s\n%s: %s",
				phase, c.name, deployment, file, firstDiff(want, w.Body.Bytes()), deployment, clip(w.Body.Bytes(), 400))
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(idx, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(diffGoldenDir, "index.json"), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
