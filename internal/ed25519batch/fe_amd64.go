//go:build !purego

package ed25519batch

// feMul sets out = a * b. It works like feMulGeneric.
//
//go:noescape
func feMul(out *fe, a *fe, b *fe)

// feSquare sets out = a * a. It works like feSquareGeneric.
//
//go:noescape
func feSquare(out *fe, a *fe)
