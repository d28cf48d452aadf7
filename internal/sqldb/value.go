// Package sqldb implements a small embedded SQL database engine.
//
// It is the substrate that stands in for PostgreSQL in the WARP
// reproduction: a lexer, parser, and executor for the SQL subset used by the
// web applications under test and by the time-travel rewriting layer
// (internal/ttdb). The engine supports CREATE TABLE, CREATE INDEX, ALTER
// TABLE ADD COLUMN, INSERT, SELECT, UPDATE, and DELETE with expression
// WHERE clauses, ORDER BY, LIMIT/OFFSET, positional parameters, RETURNING
// clauses, unique constraints, and hash indexes.
//
// The engine is deliberately simple where WARP does not need power (no
// joins, no multi-statement transactions — the paper's prototype disabled
// those too, see §6) and careful where WARP does need it (uniqueness
// semantics, precise write sets via RETURNING, AST-level query rewriting).
package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types a Value can hold.
type Kind uint8

// The value kinds supported by the engine.
const (
	KindNull Kind = iota
	KindInt
	KindText
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
type Value struct {
	Kind Kind
	Int  int64
	Str  string
	B    bool
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{Kind: KindInt, Int: v} }

// Text returns a TEXT value.
func Text(s string) Value { return Value{Kind: KindText, Str: s} }

// Bool returns a BOOLEAN value.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsTrue reports whether v is the boolean TRUE. NULL and non-boolean values
// are not true.
func (v Value) IsTrue() bool { return v.Kind == KindBool && v.B }

// AsInt returns the value as an int64, converting from text and bool
// representations when sensible. NULL converts to 0.
func (v Value) AsInt() int64 {
	switch v.Kind {
	case KindInt:
		return v.Int
	case KindBool:
		if v.B {
			return 1
		}
		return 0
	case KindText:
		n, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
		if err != nil {
			return 0
		}
		return n
	default:
		return 0
	}
}

// AsText returns the value rendered as text. NULL renders as the empty
// string.
func (v Value) AsText() string {
	switch v.Kind {
	case KindText:
		return v.Str
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// String renders the value as a SQL literal, suitable for logging.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindBool:
		if v.B {
			return "TRUE"
		}
		return "FALSE"
	case KindText:
		return QuoteString(v.Str)
	default:
		return "?invalid?"
	}
}

// QuoteString renders s as a single-quoted SQL string literal, doubling
// embedded quotes.
func QuoteString(s string) string {
	if !strings.Contains(s, "'") {
		return "'" + s + "'"
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	b.WriteByte('\'')
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			b.WriteByte('\'')
		}
		b.WriteByte(s[i])
	}
	b.WriteByte('\'')
	return b.String()
}

// Equal reports SQL equality between two values. NULL is not equal to
// anything, including NULL (use IsNull for that test). Integers and booleans
// compare across kinds the way the engine's comparison operator does.
func (v Value) Equal(o Value) bool {
	eq, ok := compareValues(v, o)
	return ok && eq == 0
}

// Key returns a string key that uniquely identifies the value for use in
// hash indexes and uniqueness checks. Distinct values map to distinct keys.
func (v Value) Key() string {
	switch v.Kind {
	case KindNull:
		return "n"
	case KindInt:
		var buf [24]byte
		return string(v.appendKey(buf[:0]))
	case KindBool:
		if v.B {
			return "bt"
		}
		return "bf"
	case KindText:
		return "t" + v.Str
	default:
		return "?"
	}
}

// appendKey appends Key's bytes to b.
func (v Value) appendKey(b []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, 'n')
	case KindInt:
		return strconv.AppendInt(append(b, 'i'), v.Int, 10)
	case KindBool:
		if v.B {
			return append(b, "bt"...)
		}
		return append(b, "bf"...)
	case KindText:
		return append(append(b, 't'), v.Str...)
	default:
		return append(b, '?')
	}
}

// ValueOfKey inverts Key: the value whose key is the given string, or
// false for a string no value's Key returns.
func ValueOfKey(key string) (Value, bool) {
	v := Null()
	switch {
	case key == "bt" || key == "bf":
		v = Bool(key == "bt")
	case strings.HasPrefix(key, "t"):
		v = Text(key[1:])
	case strings.HasPrefix(key, "i"):
		n, _ := strconv.ParseInt(key[1:], 10, 64)
		v = Int(n)
	}
	return v, v.Key() == key
}

// compareValues compares a and b, returning -1, 0, or 1 and whether the
// comparison is defined. Comparisons involving NULL are undefined. Integer
// and boolean values are compared numerically; text compares
// lexicographically. Mixed int/text comparisons coerce text to int when the
// text parses as an integer, otherwise compare as text.
func compareValues(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	if a.Kind == KindText && b.Kind == KindText {
		return strings.Compare(a.Str, b.Str), true
	}
	if a.Kind == KindText || b.Kind == KindText {
		// Mixed comparison: prefer numeric when both sides are numeric;
		// otherwise numeric values rank before non-numeric text, which keeps
		// the order antisymmetric across kinds.
		at, aNum := textNumeric(a)
		bt, bNum := textNumeric(b)
		if aNum && bNum {
			return compareInt(at, bt), true
		}
		if aNum {
			return -1, true
		}
		if bNum {
			return 1, true
		}
		return strings.Compare(a.AsText(), b.AsText()), true
	}
	return compareInt(a.AsInt(), b.AsInt()), true
}

func textNumeric(v Value) (int64, bool) {
	if v.Kind == KindInt || v.Kind == KindBool {
		return v.AsInt(), true
	}
	n, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
	return n, err == nil
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
