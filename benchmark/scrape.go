package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// counters is the counter section of a deployment's /metrics document.
type counters map[string]int64

// scrape reads the counters a deployment publishes at /metrics.
func scrape(baseURL string) (counters, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping metrics: HTTP %s", resp.Status)
	}
	var doc struct {
		Counters counters `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	return doc.Counters, nil
}

// since returns how far each counter moved from before to c. A counter
// absent from before started at zero: the registry creates counters on
// first use.
func (c counters) since(before counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// total sums a counter over its label sets: name and every name{...}.
func (c counters) total(name string) int64 {
	var n int64
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			n += v
		}
	}
	return n
}
