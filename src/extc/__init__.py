"""extc: a gradual type checker for a core Elixir fragment."""
