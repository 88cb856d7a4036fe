"""Tax events, lot books, jurisdiction policies and the report engine."""
