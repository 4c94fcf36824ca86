// Package lits defines the fundamental Boolean objects shared by the CNF,
// SAT, and BMC layers: variables, literals, and the lifted three-valued
// Boolean used for partial assignments.
//
// The encoding follows the MiniSat/Chaff convention: a variable is a
// positive integer index, and a literal packs the variable together with
// its sign into a single integer (variable v, positive phase -> 2v,
// negative phase -> 2v+1). This makes literals directly usable as dense
// array indices for watch lists and score tables.
package lits

import (
	"strconv"
)

// Var is a propositional variable. Valid variables are >= 1; 0 is reserved
// as the "undefined" variable.
type Var int32

// VarUndef is the zero value of Var and denotes "no variable".
const VarUndef Var = 0

// IsValid reports whether v is a usable variable (i.e. not VarUndef and
// not negative).
func (v Var) IsValid() bool { return v > 0 }

// String returns the conventional textual form of the variable ("x12").
func (v Var) String() string {
	if v == VarUndef {
		return "x?"
	}
	return "x" + strconv.Itoa(int(v))
}

// Lit is a literal: a variable together with a phase. Internally a literal
// is 2*v for the positive phase and 2*v+1 for the negative phase, so
// literals of variables 1..n occupy the dense index range [2, 2n+1].
type Lit int32

// LitUndef denotes "no literal". It corresponds to VarUndef.
const LitUndef Lit = 0

// MkLit builds the literal of variable v with the given phase.
// neg=false yields the positive literal (the one satisfied by v=true).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1) | 1 }

// FromDimacs converts a DIMACS-style signed integer (…,-2,-1,1,2,…) into a
// Lit. FromDimacs(0) returns LitUndef.
func FromDimacs(d int) Lit {
	switch {
	case d > 0:
		return PosLit(Var(d))
	case d < 0:
		return NegLit(Var(-d))
	default:
		return LitUndef
	}
}

// Dimacs returns the DIMACS-style signed integer form of the literal.
func (l Lit) Dimacs() int {
	if l == LitUndef {
		return 0
	}
	if l.Sign() {
		return -int(l.Var())
	}
	return int(l.Var())
}

// Var returns the variable underlying the literal.
func (l Lit) Var() Var { return Var(l >> 1) }

// Sign reports whether the literal is negative (¬x).
func (l Lit) Sign() bool { return l&1 == 1 }

// Neg returns the complement literal (x -> ¬x and vice versa).
func (l Lit) Neg() Lit { return l ^ 1 }

// XorSign returns l negated when neg is true, l itself otherwise.
func (l Lit) XorSign(neg bool) Lit {
	if neg {
		return l ^ 1
	}
	return l
}

// IsValid reports whether the literal refers to a valid variable.
func (l Lit) IsValid() bool { return l.Var().IsValid() }

// Index returns the dense array index of the literal (2v or 2v+1).
// It is the identity today but gives call sites a documented name.
func (l Lit) Index() int { return int(l) }

// String returns the conventional textual form ("x3" or "~x3").
func (l Lit) String() string {
	if l == LitUndef {
		return "lit?"
	}
	if l.Sign() {
		return "~" + l.Var().String()
	}
	return l.Var().String()
}

// TriBool is a lifted Boolean: true, false, or undefined. The zero value
// is Undef so that fresh assignment slices start out unassigned.
type TriBool int8

// The three TriBool values.
const (
	Undef TriBool = 0
	True  TriBool = 1
	False TriBool = -1
)

// BoolToTri lifts a Go bool into a TriBool.
func BoolToTri(b bool) TriBool {
	if b {
		return True
	}
	return False
}

// Not returns the three-valued negation (Undef stays Undef).
func (t TriBool) Not() TriBool { return -t }

// IsUndef reports whether the value is undefined.
func (t TriBool) IsUndef() bool { return t == Undef }

// IsTrue reports whether the value is definitely true.
func (t TriBool) IsTrue() bool { return t == True }

// IsFalse reports whether the value is definitely false.
func (t TriBool) IsFalse() bool { return t == False }

// XorSign flips the value when neg is true: used to evaluate a literal
// from its variable's value.
func (t TriBool) XorSign(neg bool) TriBool {
	if neg {
		return -t
	}
	return t
}

// String implements fmt.Stringer.
func (t TriBool) String() string {
	switch t {
	case True:
		return "T"
	case False:
		return "F"
	default:
		return "U"
	}
}

// Assignment is a partial assignment of values to variables, indexed by
// variable number. Index 0 is unused.
type Assignment []TriBool

// NewAssignment creates an assignment for variables 1..n, all Undef.
func NewAssignment(n int) Assignment { return make(Assignment, n+1) }

// NumVars returns the number of variables the assignment covers.
func (a Assignment) NumVars() int { return len(a) - 1 }

// Value returns the value of variable v (Undef when out of range).
func (a Assignment) Value(v Var) TriBool {
	if int(v) >= len(a) || v <= 0 {
		return Undef
	}
	return a[v]
}

// LitValue returns the value of literal l under the assignment.
func (a Assignment) LitValue(l Lit) TriBool {
	return a.Value(l.Var()).XorSign(l.Sign())
}

// Set assigns value t to variable v. It panics if v is out of range,
// because that is always a programming error in this codebase.
func (a Assignment) Set(v Var, t TriBool) {
	if int(v) >= len(a) || v <= 0 {
		// A constant panic message keeps Set inlinable and free of fmt;
		// the stack trace identifies the bad caller. (The solver keeps its
		// own per-literal table and does not come through here.)
		panic("lits: Set out of range")
	}
	a[v] = t
}

// SetLit makes literal l true (assigning its variable accordingly).
func (a Assignment) SetLit(l Lit) {
	a.Set(l.Var(), BoolToTri(!l.Sign()))
}

// Copy returns an independent copy of the assignment.
func (a Assignment) Copy() Assignment {
	b := make(Assignment, len(a))
	copy(b, a)
	return b
}
