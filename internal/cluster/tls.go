package cluster

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net/http"
	"os"
	"time"
)

// TLSServerConfig loads a PEM certificate/key pair for a service
// listener. Both paths are required together: a cert without its
// key (or vice versa) is a misconfiguration worth failing on at startup.
func TLSServerConfig(certFile, keyFile string) (*tls.Config, error) {
	if certFile == "" || keyFile == "" {
		return nil, fmt.Errorf("cluster: TLS needs both a certificate and a key (got cert %q, key %q)", certFile, keyFile)
	}
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("cluster: load TLS key pair: %w", err)
	}
	return &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}, nil
}

// TLSClientConfig builds a client-side TLS configuration trusting the CA
// bundle at caFile — the worker/submit-side counterpart of a service
// served with a private certificate. An empty path returns nil (system
// roots), so callers can pass the flag through unconditionally.
func TLSClientConfig(caFile string) (*tls.Config, error) {
	if caFile == "" {
		return nil, nil
	}
	pem, err := os.ReadFile(caFile)
	if err != nil {
		return nil, fmt.Errorf("cluster: read TLS CA bundle: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("cluster: %s holds no usable CA certificates", caFile)
	}
	return &tls.Config{RootCAs: pool, MinVersion: tls.VersionTLS12}, nil
}

// HTTPClient builds an HTTP client that trusts the CA bundle at caFile
// (empty = default transport and system roots).
func HTTPClient(caFile string, timeout time.Duration) (*http.Client, error) {
	hc := &http.Client{Timeout: timeout}
	tc, err := TLSClientConfig(caFile)
	if err != nil {
		return nil, err
	}
	if tc != nil {
		hc.Transport = &http.Transport{TLSClientConfig: tc}
	}
	return hc, nil
}
