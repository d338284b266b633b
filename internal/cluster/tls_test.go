package cluster_test

import (
	"bytes"
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
	"testing"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/cluster"
	"falvolt/internal/service"
)

// writeSelfSignedCert mints a short-lived ECDSA certificate for
// 127.0.0.1 and writes cert/key PEM files into dir, returning their
// paths. The cert file doubles as the client CA bundle.
func writeSelfSignedCert(t *testing.T, dir string) (certFile, keyFile string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "falvolt-test"},
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
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	if err := os.WriteFile(certFile, certPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, keyPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	return certFile, keyFile
}

func TestTLSConfigHelpers(t *testing.T) {
	dir := t.TempDir()
	certFile, keyFile := writeSelfSignedCert(t, dir)

	if _, err := cluster.TLSServerConfig(certFile, ""); err == nil {
		t.Error("missing key file should error")
	}
	if _, err := cluster.TLSServerConfig("", keyFile); err == nil {
		t.Error("missing cert file should error")
	}
	tc, err := cluster.TLSServerConfig(certFile, keyFile)
	if err != nil {
		t.Fatal(err)
	}
	if tc.MinVersion < 0x0303 { // TLS 1.2
		t.Errorf("MinVersion = %#x, want at least TLS 1.2", tc.MinVersion)
	}

	cc, err := cluster.TLSClientConfig("")
	if err != nil || cc != nil {
		t.Errorf("empty CA should mean system roots (nil config), got %v/%v", cc, err)
	}
	if _, err := cluster.TLSClientConfig(filepath.Join(dir, "nope.pem")); err == nil {
		t.Error("missing CA file should error")
	}
	junk := filepath.Join(dir, "junk.pem")
	if err := os.WriteFile(junk, []byte("not a pem"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.TLSClientConfig(junk); err == nil {
		t.Error("junk CA file should error")
	}
	cc, err = cluster.TLSClientConfig(certFile)
	if err != nil {
		t.Fatal(err)
	}
	if cc == nil || cc.RootCAs == nil {
		t.Fatal("CA bundle did not produce a root pool")
	}
}

// TestDistributedEquivalenceTLS reruns the distributed acceptance gate
// over HTTPS: the one-run service serves with a self-signed cert, the
// worker trusts it via TLSCA, and the merged results stay
// byte-identical to the single-process run.
func TestDistributedEquivalenceTLS(t *testing.T) {
	certFile, keyFile := writeSelfSignedCert(t, t.TempDir())
	const n = 19
	sp := selftestSpec(n, 11)
	want := singleProcessWant(t, buildFromSpec(t, sp))

	_, url, out := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{Shards: 2, LeaseTTL: 2 * time.Second, TLSCert: certFile, TLSKey: keyFile}, "",
		campaign.Options{})
	if !strings.HasPrefix(url, "https://") {
		t.Fatalf("TLS service URL = %q, want https://", url)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	startWorker(t, cluster.WorkerConfig{Coordinator: url, Name: "tls-w0", TLSCA: certFile}, ctx)

	oc := <-out
	if oc.err != nil {
		t.Fatal(oc.err)
	}
	got, err := campaign.MarshalResults(oc.rr.Results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("TLS-distributed results differ from single-process run")
	}

	// A worker without the CA bundle must fail fast: the self-signed cert
	// does not verify against system roots.
	w := cluster.NewWorker(cluster.WorkerConfig{Coordinator: url, Token: testToken, Name: "tls-untrusted", Retries: 2,
		Poll: 10 * time.Millisecond})
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := w.Run(wctx); err == nil {
		t.Error("worker without CA trust should fail against a self-signed https service")
	}
}
