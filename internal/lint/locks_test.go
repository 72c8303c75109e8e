package lint

import "testing"

func TestLockPairing(t *testing.T) {
	cases := []struct {
		name string
		src  string // //WANT marks expected findings
	}{
		{
			name: "lock without unlock",
			src: `package pkg
import "sync"
type S struct{ mu sync.Mutex; n int }
func (s *S) Bad() {
	s.mu.Lock() //WANT
	s.n++
}
`,
		},
		{
			name: "rlock without runlock",
			src: `package pkg
import "sync"
type S struct{ mu sync.RWMutex; n int }
func (s *S) Bad() int {
	s.mu.RLock() //WANT
	return s.n
}
`,
		},
		{
			name: "rlock paired with wrong unlock kind",
			src: `package pkg
import "sync"
type S struct{ mu sync.RWMutex; n int }
func (s *S) Bad() int {
	s.mu.RLock() //WANT
	defer s.mu.Unlock()
	return s.n
}
`,
		},
		{
			name: "deferred unlock ok",
			src: `package pkg
import "sync"
type S struct{ mu sync.Mutex; n int }
func (s *S) Good() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
`,
		},
		{
			name: "unlock on every path ok",
			src: `package pkg
import "sync"
type S struct{ mu sync.Mutex; n int }
func (s *S) Good(x int) int {
	s.mu.Lock()
	if x > 0 {
		s.mu.Unlock()
		return x
	}
	n := s.n
	s.mu.Unlock()
	return n
}
`,
		},
		{
			name: "unlock handed out as release closure ok",
			src: `package pkg
import "sync"
type S struct{ mu sync.Mutex }
func (s *S) Acquire() func() {
	s.mu.Lock()
	return s.mu.Unlock
}
`,
		},
		{
			name: "different mutexes do not satisfy each other",
			src: `package pkg
import "sync"
type S struct{ a, b sync.Mutex }
func (s *S) Bad() {
	s.a.Lock() //WANT
	defer s.b.Unlock()
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := analyzeFixture(t, map[string]string{"pkg/x.go": tc.src})
			expect(t, res, RuleLocks, wantLines(tc.src)...)
		})
	}
}

func TestGuardedFields(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{
			name: "guarded field read without lock",
			src: `package pkg
import "sync"
type S struct {
	mu sync.Mutex
	n  int // guarded by mu
}
func (s *S) Bad() int {
	return s.n //WANT
}
`,
		},
		{
			name: "guarded field write under lock ok",
			src: `package pkg
import "sync"
type S struct {
	mu sync.Mutex
	n  int // guarded by mu
}
func (s *S) Good() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
}
`,
		},
		{
			name: "Locked-suffix helper assumes lock held",
			src: `package pkg
import "sync"
type S struct {
	mu sync.Mutex
	n  int // guarded by mu
}
func (s *S) bumpLocked() {
	s.n++
}
func (s *S) Good() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bumpLocked()
}
`,
		},
		{
			name: "literal passed to a Locked parameter runs held",
			src: `package pkg
import "sync"
type S struct {
	mu sync.Mutex
	n  int // guarded by mu
}
func (s *S) run(bodyLocked func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bodyLocked()
}
func (s *S) Good() {
	s.run(func() { s.n++ })
}
`,
		},
		{
			name: "literal passed to an ordinary parameter does not",
			src: `package pkg
import "sync"
type S struct {
	mu sync.Mutex
	n  int // guarded by mu
}
func (s *S) run(body func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	body()
}
func (s *S) Bad() {
	s.run(func() { s.n++ }) //WANT
}
`,
		},
		{
			name: "method body beside a held literal is not held",
			src: `package pkg
import "sync"
type S struct {
	mu sync.Mutex
	n  int // guarded by mu
}
func (s *S) run(bodyLocked func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bodyLocked()
}
func (s *S) Bad() int {
	s.run(func() { s.n++ })
	return s.n //WANT
}
`,
		},
		{
			name: "doc comment annotation",
			src: `package pkg
import "sync"
type S struct {
	mu sync.Mutex
	// epcUsed is the allocation high-water mark.
	// guarded by mu
	epcUsed int64
}
func (s *S) Bad() int64 {
	return s.epcUsed //WANT
}
`,
		},
		{
			name: "unannotated fields unconstrained",
			src: `package pkg
import "sync"
type S struct {
	mu sync.Mutex
	n  int
}
func (s *S) Fine() int {
	return s.n
}
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := analyzeFixture(t, map[string]string{"pkg/x.go": tc.src})
			expect(t, res, RuleLocks, wantLines(tc.src)...)
		})
	}
}
