package dsm_test

import (
	"testing"

	"repro/internal/dsm"
	"repro/internal/transport/wire"
)

// A page reply is charged its page plus four bytes of framing: type tag,
// grant count, presence flag and length prefix (an external test: the wire
// package imports this one).
func TestPageReplyWireSize(t *testing.T) {
	n, err := wire.EncodedSize(dsm.PageReply{Data: make([]byte, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 104 {
		t.Errorf("encoded size = %d, want 104", n)
	}
}
