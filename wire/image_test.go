package wire

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestFrameImages pins the encoded bytes of every request and response in
// the round-trip tables against testdata/frames.hex: one line per case,
// "request N <hex>" or "response N <hex>", N the case's index in
// requestCases or responseCases and hex its whole frame, header included.
// The round-trip tests would still pass if the encoder and the decoder
// drifted together; an image moves with any byte on the wire.
func TestFrameImages(t *testing.T) {
	golden, err := os.ReadFile("testdata/frames.hex")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	var got []string
	for i, r := range requestCases() {
		frame, err := AppendRequest(nil, &r)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got = append(got, fmt.Sprintf("request %d %x", i, frame))
	}
	for i, r := range responseCases() {
		frame, err := AppendResponse(nil, &r)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		got = append(got, fmt.Sprintf("response %d %x", i, frame))
	}
	if len(got) != len(want) {
		t.Fatalf("%d frames encoded, %d images", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("frame image moved:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
