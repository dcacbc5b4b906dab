package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"readys/internal/exp"
)

// digestRE matches a hex SHA-256 content address.
var digestRE = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ArtifactStore is a content-addressed blob store on the dispatcher's disk:
// every blob is filed under sha256/<first two hex chars>/<digest>. Content
// addressing makes uploads idempotent (a retried upload of the same bytes is
// a no-op) and lets clients verify downloads end-to-end.
type ArtifactStore struct {
	dir string
}

// NewArtifactStore opens (creating if needed) a store rooted at dir.
func NewArtifactStore(dir string) (*ArtifactStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, "sha256"), 0o755); err != nil {
		return nil, fmt.Errorf("fleet: creating artifact store: %w", err)
	}
	return &ArtifactStore{dir: dir}, nil
}

func (s *ArtifactStore) path(digest string) string {
	return filepath.Join(s.dir, "sha256", digest[:2], digest)
}

// Put stores data and returns its content digest. Writing is atomic (temp
// file + rename) and idempotent: storing bytes that already exist succeeds
// without touching the existing blob.
func (s *ArtifactStore) Put(data []byte) (string, error) {
	digest := exp.HashBytes(data)
	dst := s.path(digest)
	if _, err := os.Stat(dst); err == nil {
		return digest, nil
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return "", fmt.Errorf("fleet: creating artifact shard: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".upload-*")
	if err != nil {
		return "", fmt.Errorf("fleet: staging artifact: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("fleet: writing artifact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("fleet: syncing artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("fleet: installing artifact: %w", err)
	}
	return digest, nil
}

// Get returns the blob stored under digest, verifying the content against
// its address before handing it out.
func (s *ArtifactStore) Get(digest string) ([]byte, error) {
	if !digestRE.MatchString(digest) {
		return nil, fmt.Errorf("fleet: malformed artifact digest %q", digest)
	}
	data, err := os.ReadFile(s.path(digest))
	if err != nil {
		return nil, err
	}
	if got := exp.HashBytes(data); got != digest {
		return nil, fmt.Errorf("fleet: artifact %s corrupt on disk (content hashes to %s)", digest, got)
	}
	return data, nil
}

// Has reports whether a blob exists under digest.
func (s *ArtifactStore) Has(digest string) bool {
	if !digestRE.MatchString(digest) {
		return false
	}
	_, err := os.Stat(s.path(digest))
	return err == nil
}
