package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hetpnoc/internal/batch"
)

// BenchmarkHTTPSweep times one POST /v1/sweep on a two-worker server,
// every point a cache miss (each iteration shifts the seeds past every
// earlier one) of a run-lightload shape: uniform traffic at 5 % load for
// the default 10,000 cycles. one-prefix is 64 points sharing one build
// prefix (2 load scales × 32 seeds); six-prefix is 48 points over six
// prefixes (2 architectures × 3 bandwidth sets × 8 seeds). An untimed
// sweep first puts every prefix on the process's shelf of kept builds,
// so builds/op and forks/op are the steady state of a service that has
// seen these shapes: builds/op counts the fabrics the sweep built because
// no kept build was free when a point started.
func BenchmarkHTTPSweep(b *testing.B) {
	for _, bc := range []struct {
		name, axes string
		seeds      int
	}{
		{"one-prefix", `"loadScales":[0.05,0.1]`, 32},
		{"six-prefix", `"architectures":["firefly","d-hetpnoc"],"bandwidthSets":[1,2,3]`, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(Config{Workers: 2})
			ts := httptest.NewServer(s.Handler())
			defer closeServer(b, s)
			defer ts.Close()
			sweep := func(iter int) {
				seeds := make([]string, bc.seeds)
				for i := range seeds {
					seeds[i] = fmt.Sprint(iter*bc.seeds + i + 1)
				}
				body := fmt.Sprintf(`{"base":{"loadScale":0.05},%s,"seeds":[%s]}`,
					bc.axes, strings.Join(seeds, ","))
				resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d, read error %v: %s", resp.StatusCode, err, data)
				}
			}
			sweep(0)
			builds, forks := batch.Counters()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep(i + 1)
			}
			b.StopTimer()
			nowBuilds, nowForks := batch.Counters()
			b.ReportMetric(float64(nowBuilds-builds)/float64(b.N), "builds/op")
			b.ReportMetric(float64(nowForks-forks)/float64(b.N), "forks/op")
		})
	}
}

// BenchmarkHTTPRunHit times one POST /v1/run of a config the server has
// already simulated, over a keep-alive httptest connection. repeated-body
// posts the bytes that warmed the entry, so the body index answers it;
// respelled posts a new spelling of the same config each time (16 bytes
// of trailing whitespace, spaces and newlines spelling out the iteration
// number), so it takes the full decode, canonical encoding and
// content-key lookup before the cached reply is written.
func BenchmarkHTTPRunHit(b *testing.B) {
	const body = `{"traffic":{"kind":"skewed","skewLevel":2},"cycles":1000,"warmupCycles":200,"seed":1}`
	for _, bc := range []struct {
		name    string
		respell bool
	}{{"repeated-body", false}, {"respelled", true}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(Config{Workers: 1})
			ts := httptest.NewServer(s.Handler())
			defer closeServer(b, s)
			defer ts.Close()
			client := ts.Client()
			post := func(body string) []byte {
				resp, err := client.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d, read error %v: %s", resp.StatusCode, err, data)
				}
				return data
			}
			post(body)
			want := post(body) // the cache-hit reply every iteration must carry
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next := body
				if bc.respell {
					next += respelling(i)
				}
				if got := post(next); !bytes.Equal(got, want) {
					b.Fatalf("iteration %d: reply differs from the cache hit:\n got: %s\nwant: %s", i, got, want)
				}
			}
		})
	}
}

// respelling is the i-th of 65,536 distinct 16-byte whitespace runs.
func respelling(i int) string {
	var pad [16]byte
	for bit := range pad {
		pad[bit] = " \n"[i>>bit&1]
	}
	return string(pad[:])
}
