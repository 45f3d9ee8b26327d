package dist

// maxNestingDepth is encoding/json's nesting limit: json.Valid rejects a
// value with more than this many arrays and objects open at once.
const maxNestingDepth = 10000

// validJSON reports whether data is one JSON value with optional
// whitespace around it, accepting exactly what json.Valid accepts — the
// nesting limit included, and bytes >= 0x80 inside strings without a UTF-8
// check, as encoding/json's scanner does — in one pass without allocating.
// It checks every result payload on the worker (verbatimJSON) and on the
// coordinator (parseResultFrame), and the torn last record of a checkpoint.
// FuzzValidJSON pins it to json.Valid.
func validJSON(data []byte) bool {
	// Bit d%64 of word d/64 is set when the container open at depth d is
	// an object.
	var objects [(maxNestingDepth + 63) / 64]uint64
	depth, i := uint(0), 0
	var ok bool
	for {
		// A value starts at i, after optional whitespace.
		if i = skipSpace(data, i); i == len(data) {
			return false
		}
		switch c := data[i]; c {
		case '{', '[':
			switch {
			case depth == maxNestingDepth:
				return false
			case c == '{':
				objects[depth/64] |= 1 << (depth % 64)
			default:
				objects[depth/64] &^= 1 << (depth % 64)
			}
			depth++
			// '}' and ']' are their openers plus two.
			if i = skipSpace(data, i+1); i < len(data) && data[i] == c+2 {
				i, ok = i+1, true
				depth--
				break
			}
			if c == '{' {
				if i, ok = scanKey(data, i); !ok {
					return false
				}
			}
			continue
		case '"':
			i, ok = scanString(data, i)
		case 't':
			i, ok = scanLiteral(data, i, "true")
		case 'f':
			i, ok = scanLiteral(data, i, "false")
		case 'n':
			i, ok = scanLiteral(data, i, "null")
		default:
			i, ok = scanNumber(data, i)
		}
		if !ok {
			return false
		}
		// A value ended at i: close containers until a comma opens the
		// next value, or the top-level value ends.
		for {
			if i = skipSpace(data, i); depth == 0 {
				return i == len(data)
			}
			if i == len(data) {
				return false
			}
			obj := objects[(depth-1)/64]>>((depth-1)%64)&1 != 0
			c := data[i]
			i++
			if c == ',' {
				if obj {
					if i, ok = scanKey(data, i); !ok {
						return false
					}
				}
				break
			}
			if obj && c != '}' || !obj && c != ']' {
				return false
			}
			depth--
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte of data at
// or after i, or len(data).
func skipSpace(data []byte, i int) int {
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	return i
}

// scanKey scans an object member's key and colon, with optional whitespace
// before each, from i; it returns the index just past the colon.
func scanKey(data []byte, i int) (int, bool) {
	if i = skipSpace(data, i); i == len(data) || data[i] != '"' {
		return i, false
	}
	i, ok := scanString(data, i)
	if !ok {
		return i, false
	}
	if i = skipSpace(data, i); i == len(data) || data[i] != ':' {
		return i, false
	}
	return i + 1, true
}

// scanString scans the string whose opening quote is at i and returns the
// index just past its closing quote. Control bytes must be escaped, an
// escape is one of \" \\ \/ \b \f \n \r \t or \u and four hex digits, and
// every other byte passes unchecked.
func scanString(data []byte, i int) (int, bool) {
	for i++; i < len(data); i++ {
		for i < len(data) && plain[data[i]] {
			i++
		}
		if i == len(data) {
			break
		}
		switch c := data[i]; {
		case c == '"':
			return i + 1, true
		case c < 0x20:
			return i, false
		default: // a backslash
			if i++; i == len(data) {
				return i, false
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(data) {
					return i, false
				}
				for _, h := range data[i+1 : i+5] {
					if !isHex(h) {
						return i, false
					}
				}
				i += 4
			default:
				return i, false
			}
		}
	}
	return i, false
}

// plain marks the bytes a string holds as they are: all but the quote, the
// backslash and the control bytes.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// isHex reports whether c is a hexadecimal digit.
func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// isDigit reports whether c is a decimal digit.
func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanLiteral scans the literal lit (true, false or null) at i.
func scanLiteral(data []byte, i int, lit string) (int, bool) {
	if len(data)-i < len(lit) || string(data[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}

// scanNumber scans the number at i: an optional minus sign, an integer
// part without leading zeros, an optional fraction and an optional
// exponent, each with at least one digit. What follows it is the caller's
// to check.
func scanNumber(data []byte, i int) (int, bool) {
	if data[i] == '-' {
		i++
	}
	switch {
	case i == len(data) || !isDigit(data[i]):
		return i, false
	case data[i] == '0':
		i++
	default:
		i = skipDigits(data, i)
	}
	if i < len(data) && data[i] == '.' {
		if i++; i == len(data) || !isDigit(data[i]) {
			return i, false
		}
		i = skipDigits(data, i)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i == len(data) || !isDigit(data[i]) {
			return i, false
		}
		i = skipDigits(data, i)
	}
	return i, true
}

// skipDigits returns the index of the first non-digit byte of data at or
// after i, or len(data).
func skipDigits(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}
