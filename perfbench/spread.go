package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spreadMain reads benchmark result lines from the named files and
// prints, per metric, the run count, the median and the interquartile
// range as a share of the median: the steadiness figure the benchmark's
// bounds are judged against.
func spreadMain(files []string) error {
	values := map[string][]float64{}
	for _, name := range files {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var r result
			if json.Unmarshal(sc.Bytes(), &r) != nil || r.Metrics == nil {
				continue // not a result line
			}
			for k, v := range r.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		xs := values[k]
		sp, err := spread(xs)
		if err != nil {
			fmt.Printf("%-32s n=%d (too few for quartiles)\n", k, len(xs))
			continue
		}
		fmt.Printf("%-32s n=%-3d median=%-14.6g spread=%.4f\n", k, len(xs), median(xs), sp)
	}
	return nil
}
