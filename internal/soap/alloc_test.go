package soap

import (
	"bytes"
	"runtime"
	"testing"
)

type allocation struct{ objects, bytes uint64 }

// allocated reports what one call of f allocates, as the smallest of a
// few runs so that a garbage collection emptying the body pool between
// two of them does not count against f.
func allocated(t *testing.T, f func()) allocation {
	t.Helper()
	f() // warm the pools
	best := allocation{^uint64(0), ^uint64(0)}
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best.objects = min(best.objects, after.Mallocs-before.Mallocs)
		best.bytes = min(best.bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestBulkEnvelopeAllocations is the copy guard on the envelope codec: a
// 4096-row classifyBatch envelope is read with one copy of each part and
// written into one buffer, so either direction allocates about as many
// objects as the message has strings and barely more bytes than the
// envelope is long. (The encoding/xml codec this replaced allocated 100
// objects and 4.2 envelopes' worth of bytes to read one, 19 objects and 2
// envelopes' worth to write it.)
func TestBulkEnvelopeAllocations(t *testing.T) {
	msg, env := bulkEnvelope(t)
	ceiling := uint64(len(env)) * 11 / 10
	strs := uint64(2*len(msg.Parts) + 2) // part names and values, operation, trace

	r := bytes.NewReader(env)
	read := allocated(t, func() {
		r.Reset(env)
		if _, err := Unmarshal(r); err != nil {
			t.Fatal(err)
		}
	})
	if read.objects > strs+4 || read.bytes > ceiling {
		t.Errorf("Unmarshal of a %d-byte envelope allocates %d objects, %d bytes; want <= %d objects, %d bytes",
			len(env), read.objects, read.bytes, strs+4, ceiling)
	}

	written := allocated(t, func() {
		out, err := Marshal(msg)
		if err != nil || len(out) != cap(out) {
			t.Fatalf("Marshal: %v, %d bytes in a buffer sized %d", err, len(out), cap(out))
		}
	})
	if written.objects > 2 || written.bytes > ceiling {
		t.Errorf("Marshal of a %d-byte envelope allocates %d objects, %d bytes; want <= 2 objects, %d bytes",
			len(env), written.objects, written.bytes, ceiling)
	}
}
