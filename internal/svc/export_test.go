package svc

// HoldsLedger reports whether the campaign still holds its shard ledger.
func (s *Service) HoldsLedger(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledgerLocked(id) != nil
}
