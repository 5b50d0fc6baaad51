package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// Layers a span can belong to. store and client are the two top layers a
// workload calls; the rest are reached only by the layer replays.
const (
	layerStore uint8 = iota
	layerClient
	layerCore
	layerVlog
	layerTxnlog
	layerWire
	numLayers
)

var layerNames = [numLayers]string{"store", "client", "core", "vlog", "txnlog", "wire"}

// Operations of the replayed layers (store and client spans use kindNames).
const (
	coreGet uint8 = iota
	coreInsert
	coreDelete
	coreScan
)

const (
	vlogAppend uint8 = iota
	vlogRead
)

const (
	txnAppend uint8 = iota
	txnTruncate
)

const (
	wireEncodeReq uint8 = iota
	wireDecodeReq
	wireEncodeResp
	wireDecodeResp
)

var replayOpNames = [numLayers][]string{
	layerCore:   {"get", "insert", "delete", "scan"},
	layerVlog:   {"append", "read"},
	layerTxnlog: {"append", "truncate"},
	layerWire:   {"encode_req", "decode_req", "encode_resp", "decode_resp"},
}

func spanOpName(layer, op uint8) string {
	if layer == layerStore || layer == layerClient {
		return kindNames[op]
	}
	return replayOpNames[layer][op]
}

// span is one timed call into a layer. id is the sequence number of the
// generated operation that caused it, shared by every span of that
// operation across the traced round and the replays; a replayed layer's
// parent is the store.
type span struct {
	worker uint8
	layer  uint8
	kind   uint8
	id     uint32
	start  int64
	dur    int32
}

const (
	maxSpans     = 1 << 19 // per recorder, preallocated
	maxSpanLines = 100_000 // written to the trace file, evenly thinned
)

// writeSpans writes the spans as JSON lines, thinned to maxSpanLines.
func writeSpans(dir, workload string, sets ...[]span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	stride := total/maxSpanLines + 1
	bw := bufio.NewWriter(f)
	n := 0
	for _, set := range sets {
		for i := range set {
			if n++; n%stride != 0 {
				continue
			}
			s := &set[i]
			parent := ""
			if s.layer >= layerCore {
				parent = "store"
			}
			fmt.Fprintf(bw, `{"workload":%q,"worker":%d,"layer":%q,"op":%q,"id":%d,"start_ns":%d,"end_ns":%d,"parent":%q}`+"\n",
				workload, s.worker, layerNames[s.layer], spanOpName(s.layer, s.kind), s.id, s.start, s.start+int64(s.dur), parent)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats groups span durations by (layer, op).
type spanStats map[[2]uint8][]int32

func collectSpans(sets ...[]span) spanStats {
	st := spanStats{}
	for _, set := range sets {
		for i := range set {
			k := [2]uint8{set[i].layer, set[i].kind}
			st[k] = append(st[k], set[i].dur)
		}
	}
	for _, d := range st {
		slices.Sort(d)
	}
	return st
}

// median returns the median duration in ns of (layer, op), 0 if none ran.
func (st spanStats) median(layer, op uint8) float64 {
	return quantile(st[[2]uint8{layer, op}], 0.5)
}

// total returns the summed duration in ns of (layer, op).
func (st spanStats) total(layer, op uint8) (sum float64) {
	for _, d := range st[[2]uint8{layer, op}] {
		sum += float64(d)
	}
	return sum
}

// quantile reads q from sorted samples (nearest rank), 0 when empty.
func quantile(sorted []int32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[int(q*float64(len(sorted)-1)+0.5)])
}
