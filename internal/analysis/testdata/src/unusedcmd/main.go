// Command unusedcmd roots part of the unused corpus: a narrow run over the
// unused package alone must still count this main as a caller.
package main

import "unused"

func main() { unused.FromMain() }
