package service

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/pem"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/cluster"
)

// writeTestCert mints a self-signed ECDSA cert for 127.0.0.1; the cert
// file doubles as the clients' CA bundle.
func writeTestCert(t *testing.T, dir string) (certFile, keyFile string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "falvolt-service-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	if err := os.WriteFile(certFile,
		pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der}), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile,
		pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER}), 0o600); err != nil {
		t.Fatal(err)
	}
	return certFile, keyFile
}

// TestServiceTLS runs a complete submit → execute → fetch cycle over
// HTTPS: the service serves with a self-signed cert, the catalog client
// trusts it via NewClientTLS, and the worker via WorkerConfig.TLSCA.
func TestServiceTLS(t *testing.T) {
	certFile, keyFile := writeTestCert(t, t.TempDir())
	svc, stop := startService(t, Config{
		StateDir: t.TempDir(), Shards: 2, LeaseTTL: 10 * time.Second,
		TLSCert: certFile, TLSKey: keyFile,
	})
	defer stop()
	if !strings.HasPrefix(svc.URL(), "https://") {
		t.Fatalf("TLS service URL = %q, want https://", svc.URL())
	}

	cl, err := NewClientTLS(svc.URL(), testToken, certFile)
	if err != nil {
		t.Fatal(err)
	}
	specJSON := selftestSpec(8, 1, "tls-run")
	sub, err := cl.Submit(specJSON)
	if err != nil {
		t.Fatal(err)
	}

	var executed atomic.Int64
	w := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: svc.URL(),
		Token:       testToken,
		Name:        "tls-sw",
		Runner:      countingRunner{n: &executed, inner: campaign.PoolRunner{}},
		TLSCA:       certFile,
		Poll:        10 * time.Millisecond,
		Retries:     300,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	sum, err := cl.Watch(sub.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if sum.State != RunDone {
		t.Fatalf("run finished as %s, want done", sum.State)
	}
	assertIdentical(t, specJSON, cl, sub.RunID)

	// An untrusting client must be rejected by certificate verification.
	plain := NewClient(svc.URL(), testToken)
	if _, err := plain.List(); err == nil {
		t.Error("client without CA trust should fail against a self-signed https service")
	}
}
