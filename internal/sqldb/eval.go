package sqldb

import (
	"fmt"
	"strings"
)

// Leaf semantics of expression evaluation: what an operator or a scalar
// function does to already-evaluated operands. The compiler in plan.go is
// the only production evaluator and calls these per node; the test-only
// tree-walking oracle (eval_oracle_test.go) calls the same functions, so
// the two can differ only in how they walk, never in what a leaf means.
//
// Three-valued logic is approximated the way most embedded engines do:
// comparisons with NULL yield NULL (represented as the NULL value), and
// WHERE treats anything but TRUE as non-matching.

// errEval wraps expression evaluation failures.
func errEval(format string, args ...any) error {
	return fmt.Errorf("sql: eval: %s", fmt.Sprintf(format, args...))
}

// applyBinary applies a non-short-circuit binary operator to two
// evaluated operands (AND/OR short-circuit in the evaluator itself).
func applyBinary(op BinOp, l, r Value) (Value, error) {
	switch op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		c, ok := compareValues(l, r)
		if !ok {
			return Null(), nil
		}
		switch op {
		case OpEq:
			return Bool(c == 0), nil
		case OpNe:
			return Bool(c != 0), nil
		case OpLt:
			return Bool(c < 0), nil
		case OpLe:
			return Bool(c <= 0), nil
		case OpGt:
			return Bool(c > 0), nil
		case OpGe:
			return Bool(c >= 0), nil
		}
	case OpLike:
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Bool(likeMatch(r.AsText(), l.AsText())), nil
	case OpConcat:
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Text(l.AsText() + r.AsText()), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case OpAdd:
			return Int(a + b), nil
		case OpSub:
			return Int(a - b), nil
		case OpMul:
			return Int(a * b), nil
		case OpDiv:
			if b == 0 {
				return Null(), errEval("division by zero")
			}
			return Int(a / b), nil
		case OpMod:
			if b == 0 {
				return Null(), errEval("modulo by zero")
			}
			return Int(a % b), nil
		}
	}
	return Null(), errEval("unknown binary operator")
}

// scalarFunc applies a non-aggregate function to evaluated arguments.
func scalarFunc(name string, args []Value) (Value, error) {
	switch name {
	case "LOWER":
		if err := wantArgs(name, 1, args); err != nil {
			return Null(), err
		}
		return Text(strings.ToLower(args[0].AsText())), nil
	case "UPPER":
		if err := wantArgs(name, 1, args); err != nil {
			return Null(), err
		}
		return Text(strings.ToUpper(args[0].AsText())), nil
	case "LENGTH":
		if err := wantArgs(name, 1, args); err != nil {
			return Null(), err
		}
		return Int(int64(len(args[0].AsText()))), nil
	case "ABS":
		if err := wantArgs(name, 1, args); err != nil {
			return Null(), err
		}
		n := args[0].AsInt()
		if n < 0 {
			n = -n
		}
		return Int(n), nil
	case "COALESCE":
		for _, v := range args {
			if !v.IsNull() {
				return v, nil
			}
		}
		return Null(), nil
	case "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return Null(), errEval("SUBSTR takes 2 or 3 arguments")
		}
		s := args[0].AsText()
		start := int(args[1].AsInt()) - 1 // SQL SUBSTR is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return Text(""), nil
		}
		end := len(s)
		if len(args) == 3 {
			if n := int(args[2].AsInt()); start+n < end {
				end = start + n
			}
		}
		if end < start {
			end = start
		}
		return Text(s[start:end]), nil
	default:
		return Null(), errEval("unknown function %s", name)
	}
}

func wantArgs(name string, n int, args []Value) error {
	if len(args) != n {
		return errEval("%s takes %d argument(s), got %d", name, n, len(args))
	}
	return nil
}

// likeMatch implements SQL LIKE: % matches any run (including empty),
// _ matches exactly one byte. Matching is case-sensitive, like Postgres.
func likeMatch(pattern, s string) bool {
	return likeRec(pattern, s)
}

func likeRec(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if len(s) == 0 || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}
