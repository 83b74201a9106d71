package core

import (
	"errors"
	"fmt"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/object"
)

// ObjectImage is the passive representation of an object: its persistent
// segment contents plus its volatile state snapshot. Objects in the DO/CT
// model "are persistent by nature and may exist passively" (§2, §3.1);
// passivation captures that passive form so the object can be deactivated
// and later reactivated — on any node.
type ObjectImage struct {
	Name string
	Data []byte
	KV   map[string]any
}

// Passivate captures the object's passive image and removes it from its
// home node (after posting DELETE so its handler can clean up). The
// returned image can be handed to Activate.
func (s *System) Passivate(oid ids.ObjectID) (ObjectImage, error) {
	k, err := s.Kernel(oid.Home())
	if err != nil {
		return ObjectImage{}, err
	}
	obj, err := k.store.Lookup(oid)
	if err != nil {
		return ObjectImage{}, err
	}
	data, err := k.dsm.Read(obj.Segment(), 0, obj.DataSize())
	if err != nil {
		return ObjectImage{}, fmt.Errorf("passivate %v: read segment: %w", oid, err)
	}
	img := ObjectImage{
		Name: obj.Name(),
		Data: data,
		KV:   obj.SnapshotKV(),
	}
	// Deactivate: DELETE gives the object's handler its cleanup chance,
	// then the resident copy goes away.
	if _, err := s.RaiseAndWait(oid.Home(), event.Delete, event.ToObject(oid), nil); err != nil &&
		!errors.Is(err, ErrUnhandledSync) {
		return ObjectImage{}, fmt.Errorf("passivate %v: delete: %w", oid, err)
	}
	return img, nil
}

// Activate reconstructs a passivated object at node from its image and
// spec (code is loadable everywhere; the image carries the state). It
// returns the reactivated object's new identity.
func (s *System) Activate(node ids.NodeID, spec object.Spec, img ObjectImage) (ids.ObjectID, error) {
	if spec.DataSize == 0 {
		spec.DataSize = len(img.Data)
	}
	if len(img.Data) > spec.DataSize {
		return ids.NoObject, fmt.Errorf("core: image data (%d B) exceeds spec size (%d B)", len(img.Data), spec.DataSize)
	}
	k, err := s.Kernel(node)
	if err != nil {
		return ids.NoObject, err
	}
	oid, err := k.createObject(spec)
	if err != nil {
		return ids.NoObject, err
	}
	obj, err := k.store.Lookup(oid)
	if err != nil {
		return ids.NoObject, err
	}
	if len(img.Data) > 0 {
		if err := k.dsm.Write(obj.Segment(), 0, img.Data); err != nil {
			return ids.NoObject, fmt.Errorf("activate %v: restore segment: %w", oid, err)
		}
	}
	obj.RestoreKV(img.KV)
	return oid, nil
}
