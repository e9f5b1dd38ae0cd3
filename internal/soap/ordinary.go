package soap

// ordinaryPrefix returns the length of a prefix of s, a whole number of
// eight-byte words, that holds only ordinary bytes: printable ASCII that
// neither the writer escapes nor the scanner decodes. It tests a word at
// a time, so the two table scans that give each byte its exact class
// (appendEscaped, plainLen) only ever look at words it stops on — for a
// base64 block, none. It may stop early, never late: a few harmless
// bytes one bit away from a special one ('#', and tab and newline on the
// reading side) stop it too.
func ordinaryPrefix[T string | []byte](s T) int {
	const (
		ones  = 0x0101010101010101
		highs = 0x8080808080808080
	)
	i := 0
	for ; i+8 <= len(s); i += 8 {
		p := s[i : i+8]
		w := uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
			uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
		// Each term below has the high bit of a byte set when that byte is
		// (in order) non-ASCII, a control character, one of "#&' , one of
		// <> , or ']'. Subtracting makes a zero byte borrow, and a borrow
		// can only reach a neighbour once some byte has already matched, so
		// "no high bit set" is exact.
		quote := w&^(ones*0x05) ^ ones*0x22
		angle := w&^(ones*0x02) ^ ones*0x3C
		bracket := w ^ ones*0x5D
		if (w|(w-ones*0x20)|(quote-ones)|(angle-ones)|(bracket-ones))&highs != 0 {
			break
		}
	}
	return i
}
