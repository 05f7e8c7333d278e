//go:build !amd64 || purego

package ed25519batch

func feMul(v, a, b *fe) { feMulGeneric(v, a, b) }

func feSquare(v, a *fe) { feSquareGeneric(v, a) }
