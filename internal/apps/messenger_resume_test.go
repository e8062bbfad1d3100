package apps

import (
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"bladerunner/internal/brass"
	"bladerunner/internal/burst"
	"bladerunner/internal/durlog"
	"bladerunner/internal/socialgraph"
)

// TestMessengerLogResumeReadsPastLogTail: a Messenger stream with the
// durable log on is cancelled, so its host drops the Pylon subscription
// and logs nothing while three messages are sent. The stream then
// resubscribes on the same host with its stored cursor. The log's tail is
// the cursor itself, so only the WAS read after the log suffix can serve
// the three messages; they must arrive from the open's catch-up, with no
// later publish to expose the gap.
func TestMessengerLogResumeReadsPastLogTail(t *testing.T) {
	e := newEnv(t)
	host := brass.NewHost(brass.HostConfig{
		ID: "brass-log", Region: "us",
		Durlog: &durlog.Config{}, DurlogApps: []string{AppMessenger},
	}, e.pylon, e.was, nil)
	e.suite.RegisterBRASS(host)
	t.Cleanup(host.Close)
	a, b := net.Pipe()
	cli := burst.NewClient("device", a, nil)
	host.AcceptSession("sess", b)
	t.Cleanup(func() { cli.Close() })

	alice, bob := socialgraph.UserID(23), socialgraph.UserID(24)
	out, err := e.was.Mutate(alice, `createThread(members: "23,24")`)
	if err != nil {
		t.Fatal(err)
	}
	var tid uint64
	_ = json.Unmarshal(out, &tid)
	send := func(text string) {
		t.Helper()
		if _, err := e.was.Mutate(alice, fmt.Sprintf(`sendMessage(threadID: %d, text: %q)`, tid, text)); err != nil {
			t.Fatal(err)
		}
	}
	topic := MailboxTopic(bob)

	st := e.subscribe(t, cli, AppMessenger, "messenger", bob, nil)
	waitFor(t, "mailbox sub", func() bool { return len(e.pylon.Subscribers(topic)) == 1 })
	send("one")
	recvPayload(t, st)
	waitFor(t, "log cursor at 1", func() bool {
		c, ok := durlog.Parse(st.Request().Header[burst.HdrCursor])
		return ok && c.Epoch != 0 && c.Seq == 1
	})
	saved := st.Request()
	if err := st.Cancel("offline"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "host unsubscribed", func() bool { return len(e.pylon.Subscribers(topic)) == 0 })

	send("two")
	send("three")
	send("four")

	st2, err := cli.Subscribe(saved)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	deadline := time.After(5 * time.Second)
	for len(got) < 3 {
		select {
		case batch, ok := <-st2.Events:
			if !ok {
				t.Fatal("stream closed during catch-up")
			}
			for _, d := range batch {
				if d.Type != burst.DeltaPayload {
					continue
				}
				var m MessagePayload
				_ = json.Unmarshal(d.Payload, &m)
				got = append(got, fmt.Sprintf("%d:%s", m.Seq, m.Text))
			}
		case <-deadline:
			t.Fatalf("catch-up delivered %v; want the 3 messages sent while the host logged nothing", got)
		}
	}
	if want := []string{"2:two", "3:three", "4:four"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("catch-up = %v, want %v", got, want)
	}
}
