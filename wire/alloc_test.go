package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// The codec's allocation contract, pinned with testing.AllocsPerRun:
// encoding into a reused buffer never allocates, reading frames into a
// recycled scratch buffer never allocates, fixed-size decodes never
// allocate, and variable-size decodes allocate exactly their payload slice.
// The server's and the client's zero-allocation read paths are built on
// these guarantees.

// TestReadFrameAllocFree: a frame read through a bufio.Reader into a
// recycled scratch buffer costs no allocation — the 8-byte header included,
// which a local array would leak to the heap through io.ReadFull.
func TestReadFrameAllocFree(t *testing.T) {
	const frames = 64
	var stream []byte
	for i := range frames {
		var err error
		stream, err = AppendRequest(stream, &Request{ID: uint64(i + 1), Op: OpPut, Key: uint64(i), Val: 7})
		if err != nil {
			t.Fatal(err)
		}
	}
	rd := bytes.NewReader(stream)
	br := bufio.NewReader(rd)
	scratch := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(stream)
		br.Reset(rd)
		for range frames {
			body, err := ReadFrame(br, MaxFrame, scratch)
			if err != nil {
				t.Fatal(err)
			}
			scratch = body[:0]
		}
	}); allocs != 0 {
		t.Errorf("ReadFrame allocs per %d frames = %v, want 0", frames, allocs)
	}
}

// mixedTxn is a write-set with every op kind.
var mixedTxn = []TxnOp{
	{Kind: TxnPut, Key: 1, Val: 2},
	{Kind: TxnDelete, Key: 3},
	{Kind: TxnPutK, KKey: []byte("byte key"), VVal: []byte("value bytes")},
	{Kind: TxnDeleteK, KKey: []byte("other key")},
}

func TestAppendRequestAllocFree(t *testing.T) {
	pairs := []KV{{1, 2}, {3, 4}}
	reqs := []Request{
		{ID: 1, Op: OpGet, Key: 7},
		{ID: 2, Op: OpPut, Key: 7, Val: 9},
		{ID: 3, Op: OpDelete, Key: 7},
		{ID: 4, Op: OpPutBatch, Pairs: pairs},
		{ID: 5, Op: OpScan, Lo: 1, Hi: 100, Max: 10},
		{ID: 7, Op: OpGetV, Key: 7},
		{ID: 8, Op: OpPutV, Key: 7, VVal: []byte("varlen value bytes")},
		{ID: 9, Op: OpScanV, Lo: 1, Hi: 100, Max: 10},
		{ID: 10, Op: OpGetK, KKey: []byte("byte key")},
		{ID: 11, Op: OpPutK, KKey: []byte("byte key"), VVal: []byte("value bytes")},
		{ID: 12, Op: OpDeleteK, KKey: []byte("byte key")},
		{ID: 13, Op: OpScanK, KLo: []byte("a"), KHi: []byte("z"), Max: 10},
		{ID: 14, Op: OpTxn, TxnOps: mixedTxn},
	}
	buf := make([]byte, 0, 1024)
	for i := range reqs {
		r := &reqs[i]
		if allocs := testing.AllocsPerRun(100, func() {
			var err error
			buf, err = AppendRequest(buf[:0], r)
			if err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("AppendRequest(%s) allocs/op = %v, want 0", r.Op, allocs)
		}
	}
}

func TestAppendResponseAllocFree(t *testing.T) {
	pairs := []KV{{1, 2}, {3, 4}, {5, 6}}
	resps := []Response{
		{ID: 1, Op: OpGet, Status: StatusOK, Val: 9},
		{ID: 2, Op: OpPut, Status: StatusOK},
		{ID: 3, Op: OpGet, Status: StatusNotFound},
		{ID: 4, Op: OpScan, Status: StatusOK, Pairs: pairs},
		{ID: 6, Op: OpGetV, Status: StatusOK, VVal: []byte("varlen value bytes")},
		{ID: 7, Op: OpScanV, Status: StatusOK, VPairs: []VKV{{Key: 1, Val: []byte("a")}, {Key: 2, Val: []byte("bb")}}},
		{ID: 8, Op: OpGetK, Status: StatusOK, VVal: []byte("byte-keyed value")},
		{ID: 9, Op: OpPutK, Status: StatusOK},
		{ID: 10, Op: OpScanK, Status: StatusOK, KPairs: []KKV{{Key: []byte("k1"), Val: []byte("a")}, {Key: []byte("k2"), Val: []byte("bb")}}},
	}
	buf := make([]byte, 0, 1024)
	for i := range resps {
		r := &resps[i]
		if allocs := testing.AllocsPerRun(100, func() {
			var err error
			buf, err = AppendResponse(buf[:0], r)
			if err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("AppendResponse(%s/%s) allocs/op = %v, want 0", r.Op, r.Status, allocs)
		}
	}
}

func TestDecodeRoundTripAllocs(t *testing.T) {
	encodeReq := func(r *Request) []byte {
		b, err := AppendRequest(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return b[8:] // strip the frame header: decoders take the body
	}
	encodeResp := func(r *Response) []byte {
		b, err := AppendResponse(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		return b[8:]
	}

	// Fixed-size request decodes are allocation-free.
	for _, r := range []Request{
		{ID: 1, Op: OpGet, Key: 7},
		{ID: 2, Op: OpPut, Key: 7, Val: 9},
		{ID: 3, Op: OpDelete, Key: 7},
		{ID: 5, Op: OpScan, Lo: 1, Hi: 100, Max: 10},
	} {
		body := encodeReq(&r)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeRequest(body); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("DecodeRequest(%s) allocs/op = %v, want 0", r.Op, allocs)
		}
	}

	// PutBatch allocates exactly the pairs slice.
	batch := encodeReq(&Request{ID: 4, Op: OpPutBatch, Pairs: []KV{{1, 2}, {3, 4}}})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRequest(batch); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("DecodeRequest(PutBatch) allocs/op = %v, want 1 (the pairs slice)", allocs)
	}

	// Fixed-size response decodes are allocation-free.
	for _, r := range []Response{
		{ID: 1, Op: OpGet, Status: StatusOK, Val: 9},
		{ID: 2, Op: OpPut, Status: StatusOK},
		{ID: 3, Op: OpGet, Status: StatusNotFound},
	} {
		body := encodeResp(&r)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeResponse(body); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("DecodeResponse(%s/%s) allocs/op = %v, want 0", r.Op, r.Status, allocs)
		}
	}

	// Scan responses allocate exactly the pairs slice.
	scan := encodeResp(&Response{ID: 4, Op: OpScan, Status: StatusOK, Pairs: []KV{{1, 2}, {3, 4}}})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResponse(scan); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("DecodeResponse(Scan) allocs/op = %v, want 1 (the pairs slice)", allocs)
	}

	// Varlen decodes allocate exactly their payload: PutV requests and
	// GetV responses copy the value out of the frame (one alloc), ScanV
	// responses slice every value out of one shared arena (two).
	putv := encodeReq(&Request{ID: 7, Op: OpPutV, Key: 7, VVal: []byte("some value bytes")})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRequest(putv); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("DecodeRequest(PutV) allocs/op = %v, want 1 (the value copy)", allocs)
	}
	getv := encodeResp(&Response{ID: 8, Op: OpGetV, Status: StatusOK, VVal: []byte("some value bytes")})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResponse(getv); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("DecodeResponse(GetV) allocs/op = %v, want 1 (the value copy)", allocs)
	}
	scanv := encodeResp(&Response{ID: 9, Op: OpScanV, Status: StatusOK,
		VPairs: []VKV{{Key: 1, Val: []byte("aaa")}, {Key: 2, Val: []byte("bbbb")}}})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResponse(scanv); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("DecodeResponse(ScanV) allocs/op = %v, want 2 (pairs slice + value arena)", allocs)
	}

	// Byte-key decodes allocate exactly their payload: GetK/DeleteK
	// requests copy the key (one alloc), PutK slices key and value out of
	// one arena (one), ScanK requests copy both bounds into one arena
	// (one), GetK responses copy the value (one), and ScanK responses
	// slice keys and values out of one shared arena (two).
	for _, r := range []Request{
		{ID: 10, Op: OpGetK, KKey: []byte("byte key")},
		{ID: 11, Op: OpPutK, KKey: []byte("byte key"), VVal: []byte("value bytes")},
		{ID: 12, Op: OpDeleteK, KKey: []byte("byte key")},
		{ID: 13, Op: OpScanK, KLo: []byte("a"), KHi: []byte("z"), Max: 10},
	} {
		body := encodeReq(&r)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeRequest(body); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("DecodeRequest(%s) allocs/op = %v, want 1", r.Op, allocs)
		}
	}
	getk := encodeResp(&Response{ID: 14, Op: OpGetK, Status: StatusOK, VVal: []byte("value bytes")})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResponse(getk); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("DecodeResponse(GetK) allocs/op = %v, want 1 (the value copy)", allocs)
	}
	// Txn requests decode in one pass: the ops slice, plus (from the first
	// byte-key op on) one arena that every byte key and value subslices.
	for _, tc := range []struct {
		name string
		ops  []TxnOp
		want float64
	}{
		{"fixed-width", []TxnOp{{Kind: TxnPut, Key: 1, Val: 2}, {Kind: TxnDelete, Key: 3}}, 1},
		{"mixed", mixedTxn, 2},
	} {
		body := encodeReq(&Request{ID: 16, Op: OpTxn, TxnOps: tc.ops})
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := DecodeRequest(body); err != nil {
				t.Fatal(err)
			}
		}); allocs != tc.want {
			t.Errorf("DecodeRequest(%s Txn) allocs/op = %v, want %v", tc.name, allocs, tc.want)
		}
	}
	scank := encodeResp(&Response{ID: 15, Op: OpScanK, Status: StatusOK,
		KPairs: []KKV{{Key: []byte("k1"), Val: []byte("aaa")}, {Key: []byte("k2"), Val: []byte("bbbb")}}})
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeResponse(scank); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("DecodeResponse(ScanK) allocs/op = %v, want 2 (pairs slice + arena)", allocs)
	}
}
