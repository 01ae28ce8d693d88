package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// knownAnswers are the committed results every run is checked against. A
// mismatch is a wrong answer and fails the run.
type knownAnswers struct {
	// IllinoisEssential and IllinoisVisits are the Appendix A.2 figures
	// for the Illinois protocol: 5 essential states, after 23 visits where
	// the paper counts 22 (EXPERIMENTS.md, E6, explains the extra logged
	// branch; the repository's own tests pin 23).
	IllinoisEssential int `json:"illinois_essential"`
	IllinoisVisits    int `json:"illinois_visits"`
	// Catalog is the served report of every catalog job, by protocol name.
	Catalog map[string]catalogAnswer `json:"catalog"`
	// StateSpace is the result of every state-space job, by job name; the
	// sequential and parallel drivers must both return it.
	StateSpace map[string]engineAnswer `json:"state_space"`
	// StaleReads and FinalViolations are what every trace replay of a
	// coherent protocol must report.
	StaleReads      int64 `json:"stale_reads"`
	FinalViolations int   `json:"final_violations"`
}

type catalogAnswer struct {
	Verdict   string `json:"verdict"`
	Essential int    `json:"essential"`
	Visits    int    `json:"visits"`
}

type engineAnswer struct {
	Unique int  `json:"unique"`
	Visits int  `json:"visits"`
	OK     bool `json:"ok"`
}

//go:embed known_answers.json
var knownJSON []byte

// known is the gate in force; the self-check swaps in a corrupted copy to
// prove the gate rejects it.
var known = func() knownAnswers {
	var k knownAnswers
	if err := json.Unmarshal(knownJSON, &k); err != nil {
		// The file is compiled in, so a bad one is a build defect.
		panic(fmt.Sprintf("known_answers.json: %v", err))
	}
	return k
}()
