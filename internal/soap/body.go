package soap

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// maxEnvelopeBytes bounds the envelope either side reads — plot PNGs and
// large ARFF or dmb1 payloads fit comfortably, runaway bodies do not.
const maxEnvelopeBytes = 64 << 20

// errTooLarge reports a body over the limit readBody was given.
type errTooLarge struct{ limit int }

func (e *errTooLarge) Error() string { return fmt.Sprintf("exceeds %d bytes", e.limit) }

// body is one HTTP body held whole in a pooled buffer. The scanner copies
// every string it returns out of data, so release may recycle the buffer
// as soon as parsing is done.
type body struct{ data []byte }

var bodyPool = sync.Pool{New: func() any { return new(body) }}

func (b *body) release() { bodyPool.Put(b) }

// marshalPooled renders the envelope of m into a pooled buffer.
func marshalPooled(m Message) (*body, error) {
	b := bodyPool.Get().(*body)
	data, err := appendEnvelope(b.data[:0], m)
	if err != nil {
		b.release()
		return nil, err
	}
	b.data = data
	return b, nil
}

// readBody reads r to EOF into a pooled buffer. declared is the body's
// Content-Length (negative when unknown): a known length sizes the buffer
// in one step, so the common case neither regrows nor recopies, and a
// length over limit is refused before a byte is read. An undeclared body
// grows the buffer geometrically and stops at the first byte past limit.
func readBody(r io.Reader, declared int64, limit int) (*body, error) {
	if declared > int64(limit) {
		return nil, &errTooLarge{limit}
	}
	b := bodyPool.Get().(*body)
	data := b.data[:0]
	// One spare byte lets the read that reports EOF land without growing.
	need := 512
	if declared >= 0 {
		need = int(declared) + 1
	}
	if cap(data) < need {
		data = make([]byte, 0, need)
	}
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := r.Read(data[len(data):min(cap(data), limit+1)])
		data = data[:len(data)+n]
		if len(data) > limit {
			err = &errTooLarge{limit}
		}
		if err != nil {
			b.data = data
			if err == io.EOF {
				return b, nil
			}
			b.release()
			return nil, err
		}
	}
}

// sharedEnvelope is one rendered request envelope in a pooled buffer,
// shared by every request body the transport asks for (GetBody re-reads
// it when a redirect or a dead idle connection makes it resend). The
// transport may go on sending a request body after Do has returned (it
// closes the body when it is done with it), so the buffer is recycled
// only when the call and every body handed out have let go of it.
type sharedEnvelope struct {
	buf  *body
	refs atomic.Int32
}

func newSharedEnvelope(m Message) (*sharedEnvelope, error) {
	buf, err := marshalPooled(m)
	if err != nil {
		return nil, err
	}
	e := &sharedEnvelope{buf: buf}
	e.refs.Store(1) // the call's own hold
	return e, nil
}

func (e *sharedEnvelope) release() {
	if e.refs.Add(-1) == 0 {
		e.buf.release()
	}
}

// reader returns a request body over the envelope; closing it releases
// its hold.
func (e *sharedEnvelope) reader() io.ReadCloser {
	e.refs.Add(1)
	r := &envelopeReader{envelope: e}
	r.Reset(e.buf.data)
	return r
}

type envelopeReader struct {
	bytes.Reader
	envelope *sharedEnvelope
	closed   atomic.Bool
}

func (r *envelopeReader) Close() error {
	if !r.closed.Swap(true) {
		r.envelope.release()
	}
	return nil
}
