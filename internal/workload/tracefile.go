package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file loads real trace files for users who have them (the paper's
// IBM/CloudPhysics/Twitter/FIU suites are not redistributable; the
// synthetic stand-ins in traces.go are used by default — see
// docs/ARCHITECTURE.md, "Evaluation").
//
// Two formats are supported:
//
//   - Twitter cache-trace (github.com/twitter/cache-trace):
//     timestamp,anonymized key,key size,value size,client id,operation,TTL
//   - generic CSV: key[,size[,op]] — op in {get,set,read,write,update};
//     header lines and comments (#) are skipped.

// LoadTwitterTrace parses the Twitter production cache-trace format.
// maxReqs > 0 truncates the trace (the paper truncates traces for
// concurrent loading).
func LoadTwitterTrace(r io.Reader, maxReqs int) ([]Req, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	keyIDs := make(map[string]uint64)
	var out []Req
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) < 6 {
			return nil, fmt.Errorf("workload: twitter trace line %d: %d fields, want >= 6", line, len(fields))
		}
		key := internKey(keyIDs, fields[1])
		ksz, _ := strconv.Atoi(fields[2])
		vsz, _ := strconv.Atoi(fields[3])
		size := ksz + vsz
		if size <= 0 {
			size = DefaultObjectSize
		}
		op := strings.ToLower(fields[5])
		out = append(out, Req{
			Key:   key,
			Size:  size,
			Write: op == "set" || op == "add" || op == "replace" || op == "cas" || op == "append" || op == "prepend",
		})
		if maxReqs > 0 && len(out) >= maxReqs {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: twitter trace: %w", err)
	}
	return out, nil
}

// LoadCSVTrace parses the generic key[,size[,op]] format.
func LoadCSVTrace(r io.Reader, maxReqs int) ([]Req, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	keyIDs := make(map[string]uint64)
	var out []Req
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		if line == 1 && !looksLikeData(fields) {
			continue // header
		}
		req := Req{Key: internKey(keyIDs, strings.TrimSpace(fields[0])), Size: DefaultObjectSize}
		if len(fields) > 1 {
			if sz, err := strconv.Atoi(strings.TrimSpace(fields[1])); err == nil && sz > 0 {
				req.Size = sz
			}
		}
		if len(fields) > 2 {
			switch strings.ToLower(strings.TrimSpace(fields[2])) {
			case "set", "write", "update", "insert", "w":
				req.Write = true
			}
		}
		out = append(out, req)
		if maxReqs > 0 && len(out) >= maxReqs {
			break
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: csv trace: %w", err)
	}
	return out, nil
}

// internKey maps arbitrary key strings to stable dense uint64 ids.
func internKey(ids map[string]uint64, key string) uint64 {
	if id, ok := ids[key]; ok {
		return id
	}
	id := uint64(len(ids))
	ids[key] = id
	return id
}

// looksLikeData reports whether a first CSV line is data rather than a
// header (second column numeric, or single column not naming "key").
func looksLikeData(fields []string) bool {
	if len(fields) > 1 {
		_, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		return err == nil
	}
	low := strings.ToLower(strings.TrimSpace(fields[0]))
	return low != "key" && low != "object" && low != "id"
}
