// Live event distribution: an in-process bus fanning execution and
// telemetry events out to WebSocket subscribers, plus the webhook notifier
// that POSTs fault-escalation events to tenant-registered URLs.
//
// Delivery is best-effort by design: a subscriber that cannot keep up has
// events dropped (and counted) rather than back-pressuring the simulation
// loop — the durable journal, not the event stream, is the source of truth.
package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"meda/internal/telemetry"
	"meda/pkg/api"
)

var (
	telEvents        = telemetry.C("serve.events.published")
	telEventsDropped = telemetry.C("serve.events.dropped")
	telWebhooksSent  = telemetry.C("serve.webhooks.sent")
	telWebhooksErr   = telemetry.C("serve.webhooks.errors")
)

// subscriber is one event-stream consumer with an optional tenant filter.
type subscriber struct {
	ch     chan api.Event
	tenant string // "" matches every tenant
}

// Bus assigns sequence numbers and fans events out to subscribers.
type Bus struct {
	mu   sync.Mutex
	seq  int64
	subs map[int]*subscriber
	next int
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{subs: make(map[int]*subscriber)}
}

// Subscribe registers a consumer for events matching tenant ("" = all),
// buffered to buf events. The returned cancel function unregisters and
// closes the channel; it is idempotent.
func (b *Bus) Subscribe(tenant string, buf int) (<-chan api.Event, func()) {
	if buf <= 0 {
		buf = 256
	}
	s := &subscriber{ch: make(chan api.Event, buf), tenant: tenant}
	b.mu.Lock()
	id := b.next
	b.next++
	b.subs[id] = s
	b.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			delete(b.subs, id)
			b.mu.Unlock()
			close(s.ch)
		})
	}
	return s.ch, cancel
}

// Publish assigns the event a sequence number and offers it to every
// matching subscriber without blocking; full subscribers lose the event.
// The stamped event is returned for further delivery (webhooks).
func (b *Bus) Publish(ev api.Event) api.Event {
	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	for _, s := range b.subs {
		if s.tenant != "" && s.tenant != ev.Tenant {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			telEventsDropped.Inc()
		}
	}
	b.mu.Unlock()
	telEvents.Inc()
	return ev
}

// webhookNotifier POSTs matching events to registered URLs. Deliveries run
// on their own goroutines with a bounded timeout so a slow or dead endpoint
// never stalls the fleet; Wait drains in-flight deliveries at shutdown.
type webhookNotifier struct {
	client *http.Client
	wg     sync.WaitGroup
}

// webhookTimeout bounds each webhook delivery.
const webhookTimeout = 5 * time.Second

func newWebhookNotifier() *webhookNotifier {
	return &webhookNotifier{client: &http.Client{Timeout: webhookTimeout}}
}

// matches reports whether the webhook subscribes to the event type. An
// empty filter means the degradation/fault-escalation feed.
func webhookMatches(spec api.WebhookSpec, evType string) bool {
	events := spec.Events
	if len(events) == 0 {
		events = api.DegradationEvents
	}
	for _, e := range events {
		if e == evType {
			return true
		}
	}
	return false
}

// Notify delivers ev to every matching webhook asynchronously.
func (n *webhookNotifier) Notify(hooks []api.WebhookSpec, ev api.Event) {
	var body []byte
	for _, h := range hooks {
		if !webhookMatches(h, ev.Type) {
			continue
		}
		if body == nil {
			var err error
			if body, err = json.Marshal(ev); err != nil {
				telWebhooksErr.Inc()
				return
			}
		}
		url := h.URL
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			resp, err := n.client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				telWebhooksErr.Inc()
				return
			}
			resp.Body.Close() //lint:ignore errflowstrict the delivery outcome is the status code; the body is discarded
			if resp.StatusCode >= 300 {
				telWebhooksErr.Inc()
				return
			}
			telWebhooksSent.Inc()
		}()
	}
}

// Wait blocks until every in-flight delivery has finished or timed out
// (deliveries are bounded by the client timeout, so Wait is too).
func (n *webhookNotifier) Wait() { n.wg.Wait() }
