// Package gitstamp names the source tree a measurement tool ran from, for
// the git_sha field of the BENCH_*.json documents the tools write.
package gitstamp

import (
	"os/exec"
	"strings"
)

// SHA returns HEAD's commit hash, with "-dirty" appended when the work tree
// differs from it — a number measured on uncommitted code must not carry the
// parent commit's name. The BENCH_*.json documents themselves do not count:
// regenerating one is not a change to what the next tool measures. Empty when
// git or the repository is unavailable.
func SHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	sha := strings.TrimSpace(string(out))
	changed, err := exec.Command("git", "status", "--porcelain", "--",
		":/", ":(top,exclude)BENCH_*.json").Output()
	if err != nil || len(changed) > 0 {
		sha += "-dirty"
	}
	return sha
}
