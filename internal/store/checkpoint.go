package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// checkpointPath validates name (a flat file name, no separators) and maps
// it into the checkpoints directory.
func (s *Store) checkpointPath(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("store: invalid checkpoint name %q", name)
	}
	return filepath.Join(s.root, "checkpoints", name+".json"), nil
}

// SaveCheckpoint atomically replaces the named checkpoint with the JSON
// encoding of v: the bytes are written to a temp file, fsynced, and renamed
// over the old checkpoint, so readers (and a daemon restarted after a kill)
// observe either the previous complete checkpoint or the new complete one,
// never a torn mix. The blob pack is fsynced first: a checkpoint references
// blobs by hash, so it must not reach stable storage before they do.
func (s *Store) SaveCheckpoint(name string, v any) error {
	path, err := s.checkpointPath(name)
	if err != nil {
		return err
	}
	if err := s.syncPack(); err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	s.checkpoints.Add(1)
	return nil
}

// LoadCheckpoint decodes the named checkpoint into v, reporting whether it
// exists.
func (s *Store) LoadCheckpoint(name string, v any) (bool, error) {
	path, err := s.checkpointPath(name)
	if err != nil {
		return false, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	return true, nil
}
