package assoc

// Transaction is the itemset of one row, the form the tests and the
// example write their datasets in.
type Transaction []Item

// NewMiner builds the miner of a list of transactions through
// NewMinerRows.
func NewMiner(txs []Transaction) (*Miner, error) {
	return NewMinerRows(len(txs), func(t int, add func(Item)) {
		for _, it := range txs[t] {
			add(it)
		}
	})
}
