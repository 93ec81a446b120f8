package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gcbench/internal/jobs"
)

// paddedJSON is a JSON object opened with prefix, padded with
// whitespace and closed so the body is exactly size bytes: only its
// length can reject it.
func paddedJSON(prefix string, size int64) string {
	return prefix + strings.Repeat(" ", int(size)-len(prefix)-1) + "}"
}

// TestBodyLimits: a request body one byte over its route's bound is
// refused with 413 in the JSON error envelope; a body at the bound is
// decoded as usual.
func TestBodyLimits(t *testing.T) {
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	s, _ := newJobsServer(t, jobs.Config{Execute: blockingExecute(release)}, nil)
	cases := []struct {
		path   string
		prefix string
		limit  int64
	}{
		{"/api/ensemble/design", `{"n":3`, maxDesignBody},
		{"/api/campaigns", `{"profile":"quick","algorithms":["PR"]`, maxCampaignBody},
	}
	for _, c := range cases {
		t.Run(strings.TrimPrefix(c.path, "/api/"), func(t *testing.T) {
			for _, size := range []int64{c.limit - 1, c.limit + 1} {
				w := httptest.NewRecorder()
				r := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(paddedJSON(c.prefix, size)))
				r.Header.Set("Content-Type", "application/json")
				s.Handler().ServeHTTP(w, r)
				if size > c.limit {
					if w.Code != http.StatusRequestEntityTooLarge || decodeError(t, w) != "body_too_large" {
						t.Fatalf("%d-byte body: %d %s", size, w.Code, w.Body.String())
					}
					continue
				}
				if w.Code >= 400 {
					t.Fatalf("%d-byte body within the bound: %d %s", size, w.Code, w.Body.String())
				}
			}
		})
	}
}
