package reliable

// Wire codecs for the envelope protocol, registered into
// internal/transport/wire at package init exactly as core registers its RPC
// payloads. Type IDs 23–24 and sentinel code 47 are part of the wire
// format: never renumber.

import "repro/internal/transport/wire"

const (
	widEnvelope = 23
	widAck      = 24

	wcodeUndeliverable = 47
)

func init() {
	wire.Register(widEnvelope, "reliable.Envelope",
		func(e *wire.Enc, v Envelope) {
			e.Uvarint(v.Seq)
			e.Uvarint(v.Gen)
			e.String(v.Kind)
			e.Value(v.Payload)
			e.Uvarint(v.AckCum)
		},
		func(d *wire.Dec) Envelope {
			return Envelope{
				Seq:     d.Uvarint(),
				Gen:     d.Uvarint(),
				Kind:    d.String(),
				Payload: d.Value(),
				AckCum:  d.Uvarint(),
			}
		})
	wire.Register(widAck, "reliable.Ack",
		func(e *wire.Enc, v Ack) { e.Uvarint(v.Seq); e.Uvarint(v.Cum) },
		func(d *wire.Dec) Ack { return Ack{Seq: d.Uvarint(), Cum: d.Uvarint()} })

	wire.RegisterErr(wcodeUndeliverable, ErrUndeliverable)
}
