package federation

// Envelope parity for the admission surface: the gateway serves its
// route table through the same MuxFor the members use, so a client must
// not be able to tell from an error response which side of the
// deployment it hit. This pins the 404/405 parity (status, envelope
// code, and the byte-identical sorted Allow header) for /v1/admission,
// the federated GET view itself, and the shape of a batch the gateway's
// own policy cuts short.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dollymp/internal/admission"
	"dollymp/internal/resources"
	"dollymp/internal/service"
	"dollymp/internal/trace"
	"dollymp/internal/workload"
)

// doMethod issues a bodyless request and returns the response with its
// body drained (so envelope decoding happens once, here).
func doMethod(t *testing.T, method, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestGatewayBatchChargedLikeAMember: a batch larger than the gateway
// bucket's burst gets in the way it would at a member — the admitted
// prefix enters, the rest is rejected with the refill hint, one denial
// is counted — and the remainder is accepted whole once the bucket has
// refilled. Every job the policy admitted reached a member.
func TestGatewayBatchChargedLikeAMember(t *testing.T) {
	base := t.TempDir()
	g, members := newFederation(t,
		[]string{filepath.Join(base, "a"), filepath.Join(base, "b")},
		[][]int{{0, 1}, {2, 3}}, 4)
	var now atomic.Int64 // frozen clock, advanced by hand
	now.Store(time.Unix(1000, 0).UnixNano())
	policy := admission.NewTokenBucket(admission.TokenBucketConfig{
		Rate: 1, Burst: 3,
		Now: func() time.Time { return time.Unix(0, now.Load()) },
	})
	g.cfg.Admission = policy
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()
	defer func() {
		for _, m := range members {
			m.srv.Close()
			stopRouter(t, m.r)
		}
	}()
	post := func(n int) (int, service.ErrorResponse) {
		t.Helper()
		jobs := make([]*workload.Job, n)
		for i := range jobs {
			jobs[i] = &workload.Job{Name: "t", App: "test", Phases: []workload.Phase{{
				Name: "p", Tasks: 1, Demand: resources.Cores(1, 1), MeanDuration: 2,
			}}}
		}
		var body bytes.Buffer
		if err := trace.Write(&body, jobs); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(gsrv.URL+"/v1/jobs", "application/json", &body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var er service.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, er
	}
	charged := func(want int64) {
		t.Helper()
		var submitted int64
		for _, m := range members {
			submitted += m.r.Counts().Submitted
		}
		if got := policy.Stats().Admitted; got != want || submitted != want {
			t.Fatalf("policy admitted %d, members accepted %d; want both %d", got, submitted, want)
		}
	}

	code, er := post(5)
	if code != http.StatusTooManyRequests || er.Error.Code != service.CodeAdmissionDenied ||
		len(er.IDs) != 3 || er.Rejected != 2 || er.Error.RetryAfterMS != 1000 {
		t.Fatalf("5-job batch into burst 3: %d %+v, want 429 admission_denied with 3 ids, rejected 2, retry 1000ms", code, er)
	}
	charged(3)
	var st service.AdmissionStatus
	if code := getJSON(t, gsrv.URL+"/v1/admission", &st); code != http.StatusOK || st.Denied != 1 {
		t.Fatalf("admission view %d %+v, want 1 denial", code, st)
	}

	now.Add(int64(2 * time.Second))
	if code, er := post(2); code != http.StatusAccepted || len(er.IDs) != 2 {
		t.Fatalf("2-job remainder after refill: %d %+v, want 202 with 2 ids", code, er)
	}
	charged(5)
}

func TestGatewayMemberAdmissionParity(t *testing.T) {
	base := t.TempDir()
	g, members := newFederation(t,
		[]string{filepath.Join(base, "a"), filepath.Join(base, "b")},
		[][]int{{0, 1}, {2, 3}}, 4)
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()
	defer func() {
		for _, m := range members {
			m.srv.Close()
			stopRouter(t, m.r)
		}
	}()
	surfaces := []struct{ name, url string }{
		{"gateway", gsrv.URL},
		{"member", members[0].srv.URL},
	}

	// GET answers 200 with a policy name on both sides ("none" here —
	// neither the members nor the gateway run a policy).
	for _, s := range surfaces {
		resp, body := doMethod(t, http.MethodGet, s.url+"/v1/admission")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s GET /v1/admission: %d %s", s.name, resp.StatusCode, body)
		}
		var st service.AdmissionStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("%s admission view: %v", s.name, err)
		}
		if st.Policy != "none" || st.Denied != 0 {
			t.Fatalf("%s admission view: %+v", s.name, st)
		}
	}

	// A write is a 405 with the same envelope code and the same sorted
	// Allow header on both sides; an unknown subpath is the same
	// envelope 404. Compare the two sides field by field.
	type answer struct {
		status int
		code   string
		allow  string
	}
	probe := func(surfaceURL, method, path string) answer {
		t.Helper()
		resp, body := doMethod(t, method, surfaceURL+path)
		var er service.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error.Code == "" || er.Error.Message == "" {
			t.Fatalf("%s %s: not envelope-shaped (%v): %s", method, path, err, body)
		}
		return answer{resp.StatusCode, er.Error.Code, resp.Header.Get("Allow")}
	}
	for _, tc := range []struct {
		method, path string
		want         answer
	}{
		{http.MethodDelete, "/v1/admission",
			answer{http.StatusMethodNotAllowed, service.CodeMethodNotAllowed, "GET"}},
		{http.MethodPost, "/v1/admission",
			answer{http.StatusMethodNotAllowed, service.CodeMethodNotAllowed, "GET"}},
		{http.MethodGet, "/v1/admission/nope",
			answer{http.StatusNotFound, service.CodeNotFound, ""}},
	} {
		gw := probe(gsrv.URL, tc.method, tc.path)
		mb := probe(members[0].srv.URL, tc.method, tc.path)
		if gw != tc.want {
			t.Errorf("gateway %s %s: %+v, want %+v", tc.method, tc.path, gw, tc.want)
		}
		if mb != tc.want {
			t.Errorf("member %s %s: %+v, want %+v", tc.method, tc.path, mb, tc.want)
		}
		if gw != mb {
			t.Errorf("%s %s: gateway answered %+v, member %+v", tc.method, tc.path, gw, mb)
		}
	}
}
