package rot

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"pera/internal/ed25519batch"
)

// AIKCertificate binds a platform name to its AIK public key under an
// endorsement authority's signature. It is the simulated analogue of a TPM
// endorsement/platform certificate chain: relying parties that trust the
// authority can establish which AIK speaks for which platform without a
// prior pairwise relationship.
type AIKCertificate struct {
	Platform  string
	AIK       ed25519.PublicKey
	Authority string
	Serial    uint64
	Revoked   bool
	Signature []byte
}

func certMessage(platform string, aik ed25519.PublicKey, authority string, serial uint64) []byte {
	var buf []byte
	buf = append(buf, "PERA-AIKCERT-V1\x00"...)
	buf = appendLV(buf, []byte(platform))
	buf = appendLV(buf, aik)
	buf = appendLV(buf, []byte(authority))
	buf = binary.BigEndian.AppendUint64(buf, serial)
	return buf
}

// Authority is a simulated endorsement authority (manufacturer or operator
// CA) that issues and revokes AIK certificates. It is safe for concurrent
// use.
type Authority struct {
	mu     sync.Mutex
	name   string
	key    ed25519.PrivateKey
	pub    ed25519.PublicKey
	serial uint64
	issued map[uint64]*AIKCertificate
}

// NewAuthority creates an endorsement authority with a fresh signing key.
func NewAuthority(name string) (*Authority, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("rot: generating authority key: %w", err)
	}
	return &Authority{name: name, key: priv, pub: pub, issued: make(map[uint64]*AIKCertificate)}, nil
}

// NewDeterministicAuthority derives the authority key from seed, for
// reproducible tests and benchmarks.
func NewDeterministicAuthority(name string, seed []byte) *Authority {
	h := sha256.Sum256(append([]byte("authority:"), seed...))
	priv := ed25519.NewKeyFromSeed(h[:])
	return &Authority{
		name:   name,
		key:    priv,
		pub:    priv.Public().(ed25519.PublicKey),
		issued: make(map[uint64]*AIKCertificate),
	}
}

// Name returns the authority's identity.
func (a *Authority) Name() string { return a.name }

// Public returns the authority verification key that relying parties pin.
func (a *Authority) Public() ed25519.PublicKey {
	return append(ed25519.PublicKey(nil), a.pub...)
}

// Issue signs an AIK certificate for the given platform RoT.
func (a *Authority) Issue(r *RoT) *AIKCertificate {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.serial++
	cert := &AIKCertificate{
		Platform:  r.Name(),
		AIK:       r.Public(),
		Authority: a.name,
		Serial:    a.serial,
	}
	cert.Signature = ed25519.Sign(a.key, certMessage(cert.Platform, cert.AIK, cert.Authority, cert.Serial))
	a.issued[cert.Serial] = cert
	return cert
}

// Revoke marks a previously issued certificate as revoked. Verification via
// the authority's IsRevoked will then fail, modelling compromise recovery.
func (a *Authority) Revoke(serial uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.issued[serial]
	if !ok {
		return false
	}
	c.Revoked = true
	return true
}

// IsRevoked reports whether the certificate with the given serial has been
// revoked. Unknown serials are treated as revoked.
func (a *Authority) IsRevoked(serial uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.issued[serial]
	return !ok || c.Revoked
}

// VerifyCertificate checks cert's signature under the authority public key.
// Revocation must be checked separately against the issuing authority (or a
// distributed revocation list) since the certificate itself is immutable.
func VerifyCertificate(authorityPub ed25519.PublicKey, cert *AIKCertificate) error {
	msg := certMessage(cert.Platform, cert.AIK, cert.Authority, cert.Serial)
	if !ed25519batch.Verify(authorityPub, msg, cert.Signature) {
		return ErrCertificate
	}
	return nil
}
