package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
)

// scrape is one reading of a Prometheus text exposition: sample name
// with its label set, exactly as exposed, to value.
type scrape map[string]float64

func parseScrape(text []byte) scrape {
	out := make(scrape)
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// scrapeOf reads a server's /metrics.
func scrapeOf(c *client) (scrape, error) {
	body, _, err := c.mustOK("GET", "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	return parseScrape(body), nil
}

// since returns the counter's growth from an earlier reading.
func (s scrape) since(before scrape, key string) float64 { return s[key] - before[key] }

// meanSince returns the mean of a histogram's observations made since
// an earlier reading, in the histogram's exposed unit (seconds), and
// their number. series is the family name with its labels, for example
// `indice_http_request_seconds{route="/api/query"}`.
func (s scrape) meanSince(before scrape, series string) (mean, n float64) {
	name, labels := series, ""
	if i := strings.IndexByte(series, '{'); i >= 0 {
		name, labels = series[:i], series[i:]
	}
	n = s.since(before, name+"_count"+labels)
	if n <= 0 {
		return 0, 0
	}
	return s.since(before, name+"_sum"+labels) / n, n
}

// add folds another process's reading into s, summing equal series.
func (s scrape) add(o scrape) {
	for k, v := range o {
		s[k] += v
	}
}
