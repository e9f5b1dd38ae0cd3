// Package stream implements remote data streaming, the §3 requirement that
// the framework "allow the streaming of data from a remote machine along
// with the capability to process the data locally ... particularly
// important when large volumes of data cannot be easily migrated". The wire
// format is plain ARFF: the schema header followed by one data row per
// line, so any ARFF source can stream. Reader parses incrementally, and
// Feed drives updateable (incremental) learners without materialising the
// dataset.
package stream

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"

	"repro/internal/arff"
	"repro/internal/dataset"
)

// Reader incrementally parses an ARFF stream: the header is consumed on
// newReader, instances are produced one at a time by Next.
type Reader struct {
	sc     *bufio.Scanner
	schema *dataset.Dataset
	lineNo int
}

// newReader consumes the ARFF header from r and prepares to stream rows.
func newReader(r io.Reader) (*Reader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	// Accumulate header lines until @data, then parse them with the arff
	// package against an empty data section.
	var header strings.Builder
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		header.WriteString(line)
		header.WriteByte('\n')
		if strings.HasPrefix(strings.ToLower(line), "@data") {
			d, err := arff.ParseString(header.String())
			if err != nil {
				return nil, fmt.Errorf("stream: header: %w", err)
			}
			return &Reader{sc: sc, schema: d, lineNo: lineNo}, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return nil, fmt.Errorf("stream: source ended before @data")
}

// Schema returns the streamed dataset's (empty) schema; its ClassIndex
// defaults to the last attribute.
func (r *Reader) Schema() *dataset.Dataset { return r.schema }

// Next returns the next instance, or io.EOF when the stream ends.
func (r *Reader) Next() (*dataset.Instance, error) {
	for r.sc.Scan() {
		r.lineNo++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		before := len(r.schema.Instances)
		if err := r.schema.AddRow(strings.Split(line, ",")); err != nil {
			return nil, fmt.Errorf("stream: line %d: %w", r.lineNo, err)
		}
		in := r.schema.Instances[before]
		r.schema.Instances = r.schema.Instances[:before] // stay streaming: don't accumulate
		return in, nil
	}
	if err := r.sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return nil, io.EOF
}

// updater is anything consuming instances incrementally (the incremental
// classifiers, the Cobweb clusterer, windowed statistics, ...).
type updater interface {
	Update(in *dataset.Instance) error
}

// Feed drives an updater from a Reader until EOF and returns the number of
// instances consumed.
func Feed(r *Reader, u updater) (int, error) {
	n := 0
	for {
		in, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := u.Update(in); err != nil {
			return n, fmt.Errorf("stream: instance %d: %w", n+1, err)
		}
		n++
	}
}

// serve writes d as an ARFF stream to w, flushing after every row when w is
// flushable — the remote end of the streaming pipeline.
func serve(w io.Writer, d *dataset.Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "@relation %s\n", d.Relation)
	for _, a := range d.Attrs {
		fmt.Fprintln(bw, a.SpecString())
	}
	fmt.Fprintln(bw, "@data")
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	for _, in := range d.Instances {
		for col := range d.Attrs {
			if col > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(d.CellString(in, col))
		}
		bw.WriteByte('\n')
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}
	return nil
}

// Listen serves d to every TCP connection accepted on addr (pass ":0" for
// an ephemeral port) until the listener is closed. It returns the listener
// so callers control shutdown and learn the bound address.
func Listen(addr string, d *dataset.Dataset) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go func() {
				defer conn.Close()
				_ = serve(conn, d)
			}()
		}
	}()
	return ln, nil
}

// Dial connects to a streaming server and returns a Reader over the
// connection. Closing the returned closer terminates the stream.
func Dial(addr string) (*Reader, io.Closer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: %w", err)
	}
	r, err := newReader(conn)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	return r, conn, nil
}
