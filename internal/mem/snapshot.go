package mem

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Snapshot support mirrors the paper's measurement methodology (§5.3): the
// evaluation "dumps the core image periodically when the quarantine buffer
// is full" and replays revocation sweeps over the dumps offline. A Snapshot
// is a complete, self-contained image of the tagged memory — data words, tag
// bits and page-table metadata — serialised with encoding/gob.

// snapshotPage is the wire form of one page.
type snapshotPage struct {
	VPN             uint64
	Words           [WordsPerPage]uint64
	Tags            [GranulesPerPage / 8]uint8
	CapDirty        bool
	CapStoreInhibit bool
}

// snapshotImage is the wire form of a whole memory.
type snapshotImage struct {
	Version int
	Pages   []snapshotPage
}

const snapshotVersion = 1

// WriteSnapshot serialises the memory image (pages in ascending address
// order, so identical states produce identical bytes).
func (m *Memory) WriteSnapshot(w io.Writer) error {
	img := snapshotImage{Version: snapshotVersion}
	for _, base := range m.AllPages() {
		p := m.pages[base/PageSize]
		img.Pages = append(img.Pages, snapshotPage{
			VPN:             base / PageSize,
			Words:           p.words,
			Tags:            p.tags,
			CapDirty:        p.capDirty,
			CapStoreInhibit: p.capStoreInhibit,
		})
	}
	return gob.NewEncoder(w).Encode(&img)
}

// ReadSnapshot reconstructs a memory from a serialised image. The result is
// a fresh Memory with zeroed event counters: sweeping a dump measures the
// sweep, not the run that produced it.
func ReadSnapshot(r io.Reader) (*Memory, error) {
	var img snapshotImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("mem: decoding snapshot: %w", err)
	}
	if img.Version != snapshotVersion {
		return nil, fmt.Errorf("mem: snapshot version %d, want %d", img.Version, snapshotVersion)
	}
	m := New()
	frames := m.mapFrames(uint64(len(img.Pages)), func(i uint64) uint64 { return img.Pages[i].VPN })
	for i, sp := range img.Pages {
		p := &frames[i]
		if m.pages[sp.VPN] != p {
			return nil, fmt.Errorf("mem: snapshot has duplicate page %#x", sp.VPN*PageSize)
		}
		p.words = sp.Words
		p.tags = sp.Tags
		p.capDirty = sp.CapDirty
		p.capStoreInhibit = sp.CapStoreInhibit
		p.capCount = p.countTags()
	}
	return m, nil
}
